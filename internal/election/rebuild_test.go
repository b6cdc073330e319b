package election

import (
	"encoding/json"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/radio"
)

// TestRebuildIntoMatchesFreshBuild cycles one recycled Dedicated through a
// stream of different configurations and checks each rebuild against a
// fresh one-shot build: same leader, rounds and bound, equal phase table
// (DRIP.Table, which artifacts no longer carry), and a byte-identical
// compiled artifact (it folds lists, labels, decision target and name).
func TestRebuildIntoMatchesFreshBuild(t *testing.T) {
	arena := NewBuildArena()
	cfgs := []*config.Config{
		config.StaggeredClique(10),
		config.StaggeredPath(7, 2),
		config.LineFamilyG(2),
		config.StaggeredClique(5),
		config.EarlyCenterStar(6, 2),
		config.StaggeredClique(10), // back to the first shape
	}
	var prev *Dedicated
	for i, cfg := range cfgs {
		want, err := BuildDedicated(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		got, err := arena.RebuildInto(prev, cfg)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", cfg, err)
		}
		prev = got
		if got.ExpectedLeader != want.ExpectedLeader ||
			got.LocalRounds != want.LocalRounds ||
			got.RoundBound != want.RoundBound {
			t.Fatalf("%s: rebuild diverged: leader %d/%d rounds %d/%d bound %d/%d",
				cfg, got.ExpectedLeader, want.ExpectedLeader,
				got.LocalRounds, want.LocalRounds, got.RoundBound, want.RoundBound)
		}
		if !got.DRIP.Table().Equal(want.DRIP.Table()) {
			t.Fatalf("%s: rebuild compiled a different phase table", cfg)
		}
		gotArt, err := json.Marshal(got.Compile())
		if err != nil {
			t.Fatal(err)
		}
		wantArt, err := json.Marshal(want.Compile())
		if err != nil {
			t.Fatal(err)
		}
		if string(gotArt) != string(wantArt) {
			t.Fatalf("%s (step %d): rebuilt artifact is not byte-identical to a fresh build's:\n got %s\nwant %s",
				cfg, i, gotArt, wantArt)
		}
		var g radio.ElectionOutcome
		if err := got.ElectInto(&g, radio.Options{}); err != nil {
			t.Fatal(err)
		}
		if len(g.Leaders) != 1 || g.Leaders[0] != want.ExpectedLeader {
			t.Fatalf("%s: rebuilt election elected %v, want %d", cfg, g.Leaders, want.ExpectedLeader)
		}
		if err := got.Verify(&g); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRebuildIntoFallbacks pins the contract edges: nil prev and
// artifact-loaded prev (no retained report) fall back to the arena build,
// infeasible configurations fail without producing an algorithm, and a
// failed rebuild consumes prev (the caller must not reuse it) without
// breaking the arena for the next build.
func TestRebuildIntoFallbacks(t *testing.T) {
	arena := NewBuildArena()
	cfg := config.StaggeredClique(6)
	if d, err := arena.RebuildInto(nil, cfg); err != nil || d == nil {
		t.Fatalf("nil prev should build fresh: %v", err)
	}
	fresh, err := BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(fresh.Compile(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Report != nil {
		t.Fatal("artifact-loaded algorithm unexpectedly retains a report")
	}
	if d, err := arena.RebuildInto(loaded, cfg); err != nil || d == nil {
		t.Fatalf("artifact-loaded prev should fall back to a fresh build: %v", err)
	}
	prev, err := BuildDedicated(config.StaggeredPath(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arena.RebuildInto(prev, config.SymmetricPair()); err == nil {
		t.Fatal("infeasible rebuild should fail")
	}
	// The arena survives a failed rebuild.
	if d, err := arena.RebuildInto(nil, cfg); err != nil || d == nil {
		t.Fatalf("arena broken after failed rebuild: %v", err)
	}
}

// TestRebuildIntoAllocs pins rebuild-in-place to its budget: re-admitting
// a configuration of the same shape as the recycled algorithm's must cost
// at most 1 heap allocation per build, against ~16 (and ~23x the bytes)
// for an arena build that allocates its retained report, lists, phase
// table and decision afresh. The one allocation is assemble boxing the
// drip.HistoryMatchDecision into Algorithm.Decision (election.go), which
// every build path pays alike.
func TestRebuildIntoAllocs(t *testing.T) {
	arena := NewBuildArena()
	cfg := config.StaggeredClique(32)
	d, err := arena.RebuildInto(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the recycled buffers to steady state.
	for i := 0; i < 3; i++ {
		if d, err = arena.RebuildInto(d, cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if d, err = arena.RebuildInto(d, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("rebuild-in-place allocates %.1f times per build, budget is 1", allocs)
	}
	t.Logf("rebuild-in-place: %.1f allocs/build", allocs)
}

// BenchmarkRebuildInto measures rebuild-in-place against BenchmarkBuildArena
// (the fresh arena build it replaces on the admission churn path).
func BenchmarkRebuildInto(b *testing.B) {
	arena := NewBuildArena()
	cfg := config.StaggeredClique(32)
	d, err := arena.RebuildInto(nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d, err = arena.RebuildInto(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
