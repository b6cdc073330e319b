package election

import (
	"fmt"
	"testing"

	"anonradio/internal/canonical"
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

// TestLoadDigestFastPath checks the artifact-loading trust model end to
// end: a freshly compiled artifact round-trips through JSON and loads on
// both Load (always fully validated) and LoadTrusted (digest fast path);
// missing/malformed/stale digests fall back to the full validation; and a
// tampered table is rejected by Load even when the attacker recomputed the
// digest — the trust decision lives at the call site, not in the artifact.
func TestLoadDigestFastPath(t *testing.T) {
	cfg := config.StaggeredClique(8)
	d, err := BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Compile()
	if c.ArtifactDigest == "" {
		t.Fatalf("Compile should record an artifact digest")
	}
	data, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalCompiled(data)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.ArtifactDigest != c.ArtifactDigest {
		t.Fatalf("digest did not round-trip: %q vs %q", decoded.ArtifactDigest, c.ArtifactDigest)
	}
	check := func(c *Compiled, load func(*Compiled, *config.Config) (*Dedicated, error)) *Dedicated {
		t.Helper()
		loaded, err := load(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := loaded.Elect(radio.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Verify(out); err != nil {
			t.Fatal(err)
		}
		if out.Leader() != d.ExpectedLeader {
			t.Fatalf("loaded algorithm elected %d, want %d", out.Leader(), d.ExpectedLeader)
		}
		return loaded
	}
	check(decoded, Load)
	check(decoded, LoadTrusted)

	// Missing digest: both paths perform the full validation.
	noDigest := *decoded
	noDigest.ArtifactDigest = ""
	check(&noDigest, Load)
	check(&noDigest, LoadTrusted)

	// Malformed digest: deselects the fast path, full validation accepts.
	badDigest := *decoded
	badDigest.ArtifactDigest = "not-hex"
	check(&badDigest, LoadTrusted)

	// Stale digest over a genuine table: the trusted path falls back to the
	// full validation and accepts.
	staleDigest := *decoded
	staleDigest.ArtifactDigest = "00000000000000ff"
	check(&staleDigest, LoadTrusted)

	// Tampered table whose digest no longer verifies: rejected on both
	// paths (the trusted path falls back to the recompile-and-compare
	// validation).
	tampered, err := UnmarshalCompiled(data)
	if err != nil {
		t.Fatal(err)
	}
	tampered.PhaseTable.Plans[0].Block = -1
	if _, err := Load(tampered, cfg); err == nil {
		t.Fatalf("tampered phase table should be rejected by Load")
	}
	if _, err := LoadTrusted(tampered, cfg); err == nil {
		t.Fatalf("tampered phase table with a stale digest should be rejected by LoadTrusted")
	}

	// Tampered table with a recomputed digest: this is exactly the attack
	// an artifact-controlled trust flag could not stop — the default Load
	// must still reject it because it never honors the digest.
	forged, err := UnmarshalCompiled(data)
	if err != nil {
		t.Fatal(err)
	}
	forged.PhaseTable.Plans[0].Block = -1
	forged.ArtifactDigest = fmt.Sprintf("%016x", canonical.ArtifactDigest(forged.Blueprint.Sigma, forged.Blueprint.Lists, forged.PhaseTable))
	if _, err := Load(forged, cfg); err == nil {
		t.Fatalf("forged digest must not bypass Load's full validation")
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
