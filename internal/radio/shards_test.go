package radio

import (
	"math/rand"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/graph"
	"anonradio/internal/history"
)

// hubCluster builds a skewed-degree configuration: k hubs (nodes 0..k-1)
// chained in a path, each hub carrying m private leaves.
func hubCluster(k, m int) *config.Config {
	n := k + k*m
	g := graph.New(n)
	for h := 0; h < k; h++ {
		if h > 0 {
			g.AddEdge(h-1, h)
		}
		for l := 0; l < m; l++ {
			g.AddEdge(h, k+h*m+l)
		}
	}
	tags := make([]int, n)
	for v := range tags {
		tags[v] = v % 3
	}
	return config.MustNew(g, tags)
}

// TestSimulatorReset checks that a Reset simulator behaves exactly like a
// freshly constructed one, and that re-binding across same-shape
// configurations is allocation-free once warm.
func TestSimulatorReset(t *testing.T) {
	beacon := drip.Func(func(h history.Vector) drip.Action {
		if len(h) >= 4 {
			return drip.TerminateAction()
		}
		return drip.TransmitAction("b")
	})
	sim, err := NewSimulator(config.StaggeredClique(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(beacon, Options{}); err != nil {
		t.Fatal(err)
	}
	// Rebind to a different, larger configuration and compare with a fresh
	// simulator on every observable output.
	cfg2 := hubCluster(2, 5)
	if err := sim.Reset(cfg2); err != nil {
		t.Fatal(err)
	}
	if sim.Config() != cfg2 {
		t.Fatalf("Reset did not rebind the configuration")
	}
	fresh, err := NewSimulator(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(beacon, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(beacon, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.GlobalRounds != want.GlobalRounds {
		t.Fatalf("reset simulator: %d rounds, fresh: %d", got.GlobalRounds, want.GlobalRounds)
	}
	for v := 0; v < cfg2.N(); v++ {
		if !got.Histories[v].Equal(want.Histories[v]) {
			t.Fatalf("node %d history diverged after Reset", v)
		}
		if got.WakeRound[v] != want.WakeRound[v] || got.DoneLocal[v] != want.DoneLocal[v] || got.Forced[v] != want.Forced[v] {
			t.Fatalf("node %d bookkeeping diverged after Reset", v)
		}
	}
	if err := sim.Reset(nil); err == nil {
		t.Fatalf("Reset(nil) should fail")
	}

	// Steady state: cycling a warm simulator through same-sized
	// configurations must not allocate.
	cfgs := []*config.Config{config.StaggeredClique(12), config.StaggeredPath(12, 1)}
	for _, c := range cfgs { // warm every buffer to the larger shape
		if err := sim.Reset(c); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(beacon, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	run := func() {
		i++
		if err := sim.Reset(cfgs[i%2]); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(beacon, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(30, run); allocs != 0 {
		t.Fatalf("warm Reset+Run allocates %.1f times, want 0", allocs)
	}
}

// permutedClique returns the complete graph on n nodes whose tags are a
// seeded permutation of 0..n-1, so tag order and node order differ.
func permutedClique(n int, seed int64) *config.Config {
	tags := rand.New(rand.NewSource(seed)).Perm(n)
	return config.MustNew(graph.Complete(n), tags)
}

// BenchmarkSimulatorRebind measures Reset, the rebind a shard worker's
// simulator pays when consecutive elections belong to different keys. Each
// op alternates between two configurations of the same shape, so every
// Reset rebinds for real.
func BenchmarkSimulatorRebind(b *testing.B) {
	for _, c := range []struct {
		name string
		cfgs [2]*config.Config
	}{
		{"clique96-permuted", [2]*config.Config{permutedClique(96, 1), permutedClique(96, 2)}},
		{"n=16", [2]*config.Config{permutedClique(16, 1), config.StaggeredPath(16, 1)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			sim, err := NewSimulator(c.cfgs[0])
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Reset(c.cfgs[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRebindOrdersWakeUpsByTag pins the wake-up order Reset builds, by the
// counting pass (a span of at most countingSpan·n) and by the sort (a wider
// one): every node once, in ascending tag order, and a rebound simulator
// runs like a fresh one on both.
func TestRebindOrdersWakeUpsByTag(t *testing.T) {
	wide := config.MustNew(graph.Path(6), []int{9, 1 << 40, 0, 9, 3, 1 << 20})
	beacon := drip.Func(func(h history.Vector) drip.Action {
		if len(h) >= 3 {
			return drip.TerminateAction()
		}
		return drip.ListenAction()
	})
	sim, err := NewSimulator(config.StaggeredClique(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*config.Config{permutedClique(40, 3), config.StaggeredPath(5, 2), wide} {
		if err := sim.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, cfg.N())
		for i, v := range sim.byTag {
			if seen[v] {
				t.Fatalf("%s: node %d listed twice in %v", cfg, v, sim.byTag)
			}
			seen[v] = true
			if i > 0 && cfg.Tag(int(sim.byTag[i-1])) > cfg.Tag(int(v)) {
				t.Fatalf("%s: wake-up order %v is not ascending by tag", cfg, sim.byTag)
			}
		}
		if len(sim.byTag) != cfg.N() {
			t.Fatalf("%s: %d nodes ordered, want %d", cfg, len(sim.byTag), cfg.N())
		}
		if cfg == wide {
			continue // its run lasts 2^40 rounds
		}
		fresh, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run(beacon, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(beacon, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.WakeRound {
			if got.WakeRound[v] != want.WakeRound[v] || got.DoneLocal[v] != want.DoneLocal[v] {
				t.Fatalf("%s: node %d woke in round %d, a fresh simulator's in %d", cfg, v, got.WakeRound[v], want.WakeRound[v])
			}
		}
	}
}
