package core

import (
	"math/rand"
	"testing"

	"anonradio/internal/config"
)

// TestLabelSortAllocFree pins down the satellite requirement that label
// sorting never allocates, on both the insertion-sort path and the long-label
// fallback.
func TestLabelSortAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, size := range []int{0, 1, 5, 17, 32, 33, 200} {
		label := make(Label, size)
		fill := func() {
			for i := range label {
				label[i] = Triple{Class: rng.Intn(7) + 1, Round: rng.Intn(9) + 1, Multi: rng.Intn(2) == 1}
			}
		}
		fill()
		if allocs := testing.AllocsPerRun(20, func() {
			fill()
			label.Sort()
		}); allocs != 0 {
			t.Fatalf("len=%d: Label.Sort allocates %.1f times, want 0", size, allocs)
		}
		for i := 1; i < len(label); i++ {
			if label[i].Less(label[i-1]) {
				t.Fatalf("len=%d: label not sorted at %d: %v > %v", size, i, label[i-1], label[i])
			}
		}
	}
}

// TestTurboAllocAdvantage is the acceptance gate for the refinement-step
// allocation work: on a BenchmarkAblationRefine-class workload (the dense
// staggered clique) the lean turbo path must allocate at least 5x less than
// the reference Classify per classification.
func TestTurboAllocAdvantage(t *testing.T) {
	cfg := config.StaggeredClique(64)
	engine := NewTurbo()
	if _, err := engine.Classify(cfg, ClassifyOptions{}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	turboAllocs := testing.AllocsPerRun(10, func() {
		if _, err := engine.Classify(cfg, ClassifyOptions{}); err != nil {
			t.Fatalf("%v", err)
		}
	})
	refAllocs := testing.AllocsPerRun(10, func() {
		if _, err := Classify(cfg); err != nil {
			t.Fatalf("%v", err)
		}
	})
	if turboAllocs*5 > refAllocs {
		t.Fatalf("turbo allocates %.0f/op vs reference %.0f/op: less than the required 5x advantage", turboAllocs, refAllocs)
	}
}
