package anonradio

// This file is the benchmark harness: one benchmark (or benchmark group) per
// experiment of cmd/experiments (the paper's E1–E11), plus micro-benchmarks
// for the hot paths of the Classifier, the simulator and the election. Run
// with:
//
//	go test -bench=. -benchmem
//
// The E-numbered benchmarks measure the code paths behind the tables that
// `go run ./cmd/experiments` prints, at benchmark-friendly sizes.
// docs/PERFORMANCE.md records what they measured before and after each
// change.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"anonradio/internal/baseline"
	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/drip"
	"anonradio/internal/election"
	"anonradio/internal/graph"
	"anonradio/internal/radio"
	"anonradio/internal/symmetry"
	"anonradio/internal/wl"
)

// --- E1: Classifier scaling -------------------------------------------------

func benchmarkClassify(b *testing.B, gen func() *config.Config) {
	cfg := gen()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Classify(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1ClassifierStaggeredPath(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkClassify(b, func() *config.Config { return config.StaggeredPath(n, 1) })
		})
	}
}

func BenchmarkE1ClassifierStaggeredClique(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkClassify(b, func() *config.Config { return config.StaggeredClique(n) })
		})
	}
}

func BenchmarkE1ClassifierLineFamily(b *testing.B) {
	for _, m := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			benchmarkClassify(b, func() *config.Config { return config.LineFamilyG(m) })
		})
	}
}

func BenchmarkE1ClassifierRandomSparse(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cfg := config.Random(n, 4.0/float64(n), config.UniformRandomTags{Span: 3}, rng)
			benchmarkClassify(b, func() *config.Config { return cfg })
		})
	}
}

// --- E2: dedicated election on random feasible configurations ---------------

func feasibleRandomConfig(b *testing.B, n, span int, seed int64) *config.Config {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 200; attempt++ {
		cfg := config.Random(n, 4.0/float64(n), config.UniformRandomTags{Span: span}, rng)
		rep, err := core.Classify(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Feasible() {
			return cfg
		}
	}
	b.Fatalf("no feasible configuration found for n=%d span=%d", n, span)
	return nil
}

func BenchmarkE2ElectionBuildAndRun(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		for _, span := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/sigma=%d", n, span), func(b *testing.B) {
				cfg := feasibleRandomConfig(b, n, span, int64(n*100+span))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d, err := election.BuildDedicated(cfg)
					if err != nil {
						b.Fatal(err)
					}
					out, err := d.Elect(radio.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if !out.Elected() {
						b.Fatal("election failed")
					}
				}
			})
		}
	}
}

// --- E3 / E4: lower-bound families ------------------------------------------

func BenchmarkE3LineFamilyElection(b *testing.B) {
	for _, m := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			cfg := config.LineFamilyG(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := election.MinimumElectionRounds(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE4SpanFamilyElection(b *testing.B) {
	for _, m := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			cfg := config.SpanFamilyH(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := election.MinimumElectionRounds(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5 / E6: impossibility replays ------------------------------------------

func BenchmarkE5UniversalCounterexample(b *testing.B) {
	d, err := election.BuildDedicated(config.SpanFamilyH(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := election.UniversalCounterexample(d.DRIP, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6DecisionIndistinguishability(b *testing.B) {
	d, err := election.BuildDedicated(config.SpanFamilyH(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := election.DecisionIndistinguishability(d.DRIP, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: feasibility survey (classifier + oracle cross-check) ----------------

func BenchmarkE7SurveyCrossCheck(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			configs := make([]*config.Config, 32)
			for i := range configs {
				configs[i] = config.Random(n, 4.0/float64(n), config.UniformRandomTags{Span: 3}, rng)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := configs[i%len(configs)]
				rep, err := core.Classify(cfg)
				if err != nil {
					b.Fatal(err)
				}
				naive, err := baseline.NaiveClassify(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Feasible() != naive.Feasible {
					b.Fatal("oracle disagreement")
				}
			}
		})
	}
}

// --- E8: the simulation engine ------------------------------------------------

func benchmarkEngine(b *testing.B, eng radio.Engine, n int) {
	cfg := config.StaggeredClique(n)
	rep, err := core.Classify(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dg, err := canonical.New(rep)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(cfg, dg, radio.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8SequentialEngine(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkEngine(b, radio.Sequential{}, n) })
	}
}

// --- E9: baselines -------------------------------------------------------------

func BenchmarkE9CanonicalOnClique(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := config.StaggeredClique(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := election.MinimumElectionRounds(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE9FloodMaxTDMA(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := config.StaggeredClique(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.FloodMaxTDMA(cfg, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE9BinarySearchSingleHop(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.BinarySearchSingleHop(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE9RandomizedSingleHop(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.RandomizedSingleHop(n, rng, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks -----------------------------------------------------------

func BenchmarkMicroCanonicalAct(b *testing.B) {
	cfg := config.LineFamilyG(4)
	rep, err := core.Classify(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dg, err := canonical.New(rep)
	if err != nil {
		b.Fatal(err)
	}
	res, err := radio.Sequential{}.Run(cfg, dg, radio.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// The protocol as the simulator calls it: ActCodes through
	// radio.CodedProtocol on a coded history, in the middle of the
	// execution, where block matching is exercised.
	var proto radio.CodedProtocol = dg
	h := res.Histories[0].AppendCodes(nil, canonical.Message)
	h = h[:len(h)*2/3]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proto.ActCodes(h)
	}
}

func BenchmarkMicroHistoryKey(b *testing.B) {
	cfg := config.SpanFamilyH(8)
	rep, err := core.Classify(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dg, err := canonical.New(rep)
	if err != nil {
		b.Fatal(err)
	}
	res, err := radio.Sequential{}.Run(cfg, dg, radio.Options{})
	if err != nil {
		b.Fatal(err)
	}
	h := res.Histories[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Key()
	}
}

func BenchmarkMicroRandomConfig(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = config.Random(64, 0.1, config.UniformRandomTags{Span: 8}, rng)
	}
}

func BenchmarkMicroPublicElect(b *testing.B) {
	cfg := SpanFamilyH(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Elect(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10 / E11: structural comparison benchmarks --------------------------------

func BenchmarkE10ColorRefinement(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			cfg := config.Random(n, 4.0/float64(n), config.UniformRandomTags{Span: 3}, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wl.Refine(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE11SymmetryOrbits(b *testing.B) {
	cases := []struct {
		name string
		cfg  *config.Config
	}{
		{"S_4", config.SymmetricFamilyS(4)},
		{"G_3", config.LineFamilyG(3)},
		{"uniform-cycle-12", config.UniformTags(graph.Cycle(12))},
		{"staggered-clique-12", config.StaggeredClique(12)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := symmetry.Orbits(tc.cfg, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A1: Refine implementation ablation -------------------------------------------

func BenchmarkAblationRefineScan(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("clique-n=%d", n), func(b *testing.B) {
			cfg := config.StaggeredClique(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Classify(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A1 (continued): turbo classifier and batch serving ----------------------------

func BenchmarkAblationRefineTurbo(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("clique-n=%d", n), func(b *testing.B) {
			cfg := config.StaggeredClique(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.ClassifyTurbo(cfg, core.ClassifyOptions{RecordSnapshots: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationRefineTurboLean(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("clique-n=%d", n), func(b *testing.B) {
			cfg := config.StaggeredClique(n)
			engine := core.NewTurbo()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Classify(cfg, core.ClassifyOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClassifyBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	cfgs := make([]*config.Config, 256)
	for i := range cfgs {
		cfgs[i] = config.Random(24, 4.0/24.0, config.UniformRandomTags{Span: 3}, rng)
	}
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results := core.ClassifyBatch(cfgs, core.ClassifyOptions{}, workers)
				for _, res := range results {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}

func BenchmarkSurveyParallel(b *testing.B) {
	gen := func(i int) *config.Config {
		rng := rand.New(rand.NewSource(int64(i)))
		return config.Random(24, 4.0/24.0, config.UniformRandomTags{Span: 3}, rng)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SurveyParallel(256, 0, gen); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks: refinement-step building blocks ------------------------------

func BenchmarkMicroLabelSort(b *testing.B) {
	for _, size := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("len=%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			src := make(core.Label, size)
			for i := range src {
				src[i] = core.Triple{Class: rng.Intn(9) + 1, Round: rng.Intn(11) + 1, Multi: rng.Intn(2) == 1}
			}
			scratch := make(core.Label, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch, src)
				scratch.Sort()
			}
		})
	}
}

// --- E8 (continued): steady-state engine round loop ---------------------------------

// BenchmarkE8SimulatorSteadyState measures the sequential engine's round
// loop with a reused Simulator and a non-allocating protocol: after the
// first run warms the buffers the loop must report 0 allocs/op (the
// acceptance criterion for the zero-alloc rewrite; the companion test
// TestSimulatorSteadyStateAllocs enforces it exactly).
func BenchmarkE8SimulatorSteadyState(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := config.StaggeredClique(n)
			sim, err := radio.NewSimulator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var proto drip.Protocol = drip.BeepAt{Round: 1, StopAfter: 4}
			if _, err := sim.Run(proto, radio.Options{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(proto, radio.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- election pipeline: build latency and steady-state serving ----------------------

// BenchmarkElectionBuild measures BuildDedicated end to end: lean turbo
// classification, phase-table compilation, and the canonical run on the
// pooled simulator.
func BenchmarkElectionBuild(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := config.StaggeredClique(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := election.BuildDedicated(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sparseConfig is a seeded connected configuration on n nodes: a random
// spanning tree plus n/2 random extra edges, with tags drawn uniformly from
// [0, maxTag] (the shape of the fleet benchmark's sparse serve-large keys).
func sparseConfig(n, maxTag int, seed int64) *config.Config {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	for i := 0; i < n/2; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddEdge(u, v)
		}
	}
	tags := make([]int, n)
	for v := range tags {
		tags[v] = rng.Intn(maxTag + 1)
	}
	return config.MustNew(g, tags)
}

// BenchmarkElectionSteadyState measures the pooled election hot path: one
// dedicated algorithm serving repeated elections through ElectInto. The
// companion test TestElectSteadyStateAllocs pins the 0 allocs/op exactly.
// The cases cover the three delivery regimes of the round loop: in the
// staggered cliques every transmit round has a lone transmitter, the G_8
// line has none and spends its time in the phase table's Act, and the
// sparse graph mixes lone and colliding rounds.
func BenchmarkElectionSteadyState(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  *config.Config
	}{
		{"n=16", config.StaggeredClique(16)},
		{"n=64", config.StaggeredClique(64)},
		{"clique96", config.StaggeredClique(96)},
		{"G8", config.LineFamilyG(8)},
		{"sparse64", sparseConfig(64, 24, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			d, err := election.BuildDedicated(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			var out radio.ElectionOutcome
			if err := d.ElectInto(&out, radio.Options{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.ElectInto(&out, radio.Options{}); err != nil {
					b.Fatal(err)
				}
				if len(out.Leaders) != 1 {
					b.Fatal("election failed")
				}
			}
		})
	}
}

// --- compiled-algorithm and metrics micro-benchmarks -------------------------------

func BenchmarkMicroCompileLoadElect(b *testing.B) {
	cfg := config.LineFamilyG(2)
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiled, err := election.UnmarshalCompiled(data)
		if err != nil {
			b.Fatal(err)
		}
		loaded, err := election.Load(compiled, cfg)
		if err != nil {
			b.Fatal(err)
		}
		out, err := loaded.Elect(radio.Options{})
		if err != nil || !out.Elected() {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroExecutionMetrics(b *testing.B) {
	cfg := config.LineFamilyG(3)
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := radio.Sequential{}.Run(cfg, d.DRIP, radio.Options{RecordTrace: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := radio.ComputeMetrics(res); err != nil {
			b.Fatal(err)
		}
	}
}
