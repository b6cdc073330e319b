package election

import (
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/radio"
)

// TestBuildDedicatedIntoMatchesBuildDedicated checks that the arena-backed
// build produces an algorithm observationally identical to the one-shot
// build, across a stream of different configurations on one arena.
func TestBuildDedicatedIntoMatchesBuildDedicated(t *testing.T) {
	arena := NewBuildArena()
	cfgs := []*config.Config{
		config.StaggeredClique(10),
		config.StaggeredPath(7, 2),
		config.LineFamilyG(2),
		config.StaggeredClique(5),
	}
	for _, cfg := range cfgs {
		want, err := BuildDedicated(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		got, err := BuildDedicatedInto(arena, cfg)
		if err != nil {
			t.Fatalf("%s: arena build: %v", cfg, err)
		}
		if got.ExpectedLeader != want.ExpectedLeader ||
			got.LocalRounds != want.LocalRounds ||
			got.RoundBound != want.RoundBound {
			t.Fatalf("%s: arena build diverged: leader %d/%d rounds %d/%d bound %d/%d",
				cfg, got.ExpectedLeader, want.ExpectedLeader,
				got.LocalRounds, want.LocalRounds, got.RoundBound, want.RoundBound)
		}
		if !got.DRIP.Table().Equal(want.DRIP.Table()) {
			t.Fatalf("%s: arena build compiled a different phase table", cfg)
		}
		var g, w radio.ElectionOutcome
		if err := got.ElectInto(&g, radio.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := want.ElectInto(&w, radio.Options{}); err != nil {
			t.Fatal(err)
		}
		if g.Rounds != w.Rounds || len(g.Leaders) != 1 || g.Leaders[0] != w.Leaders[0] {
			t.Fatalf("%s: arena-built election diverged: %v/%d vs %v/%d",
				cfg, g.Leaders, g.Rounds, w.Leaders, w.Rounds)
		}
		if err := got.Verify(&g); err != nil {
			t.Fatal(err)
		}
	}
	// Infeasible configurations and a nil arena keep their contracts.
	if _, err := BuildDedicatedInto(arena, config.SymmetricPair()); err == nil {
		t.Fatalf("infeasible configuration should fail")
	}
	if d, err := BuildDedicatedInto(nil, config.StaggeredClique(4)); err != nil || d == nil {
		t.Fatalf("nil arena should behave like BuildDedicated: %v", err)
	}
}

func BenchmarkBuildArena(b *testing.B) {
	cfg := config.StaggeredClique(64)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BuildDedicated(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("arena", func(b *testing.B) {
		arena := NewBuildArena()
		if _, err := BuildDedicatedInto(arena, cfg); err != nil { // warm
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := BuildDedicatedInto(arena, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
