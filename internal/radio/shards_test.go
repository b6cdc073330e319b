package radio

import (
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/graph"
	"anonradio/internal/history"
)

// hubCluster builds a skewed-degree configuration: k hubs (nodes 0..k-1)
// chained in a path, each hub carrying m private leaves. The hubs are
// contiguously numbered, which is exactly the layout that defeats
// equal-node-count sharding: the first shard swallows every hub.
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

// TestPoolExecutorDegreeShardsMatchInline checks that the pool executor is
// observationally identical to the inline executor on a skewed-degree graph,
// at worker counts below, near and above the round's due-list length.
func TestPoolExecutorDegreeShardsMatchInline(t *testing.T) {
	cfg := hubCluster(3, 17)
	ref, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proto := drip.Func(func(h history.Vector) drip.Action {
		switch {
		case len(h) >= 6:
			return drip.TerminateAction()
		case len(h)%2 == 1:
			return drip.TransmitAction("m")
		default:
			return drip.ListenAction()
		}
	})
	want, err := ref.Run(proto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		sim, err := NewParallelSimulator(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run(proto, Options{})
		if err != nil {
			sim.Close()
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.GlobalRounds != want.GlobalRounds {
			t.Fatalf("workers=%d: %d rounds, want %d", workers, got.GlobalRounds, want.GlobalRounds)
		}
		for v := 0; v < cfg.N(); v++ {
			if !got.Histories[v].Equal(want.Histories[v]) {
				t.Fatalf("workers=%d: node %d history diverged", workers, v)
			}
		}
		sim.Close()
	}
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

// weightedListener is a protocol whose per-call cost is tunable: it models
// heterogeneous deployments where a node's per-round computation tracks the
// size of its neighbourhood (hubs do more work than leaves). The burn loop's
// result feeds a branch the compiler cannot remove, and the branch outcome is
// deterministic, so histories stay schedule-independent.
type weightedListener struct {
	work int
	stop int
}

func (p weightedListener) Act(h history.Vector) drip.Action {
	x := uint64(len(h) + 1)
	for i := 0; i < p.work; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 42 { // never for these seeds; defeats dead-code elimination
		return drip.TransmitAction("x")
	}
	if len(h) >= p.stop {
		return drip.TerminateAction()
	}
	return drip.ListenAction()
}

// BenchmarkSkewedShardAct measures the pool executor on a hub-cluster graph
// with per-node work proportional to the degree (heterogeneous protocols via
// RunProtocols).
func BenchmarkSkewedShardAct(b *testing.B) {
	const k, m, workers = 8, 96, 8
	cfg := hubCluster(k, m)
	protos := make([]drip.Protocol, cfg.N())
	for v := range protos {
		protos[v] = weightedListener{work: 20 * cfg.Graph().Degree(v), stop: 12}
	}
	sim, err := NewParallelSimulator(cfg, workers)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunProtocols(protos, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
