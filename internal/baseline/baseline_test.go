package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/graph"
)

func TestNaiveClassifyInputValidation(t *testing.T) {
	if _, err := NaiveClassify(nil); err == nil {
		t.Fatalf("nil configuration should error")
	}
}

func TestNaiveClassifyKnownFamilies(t *testing.T) {
	cases := []struct {
		cfg      *config.Config
		feasible bool
	}{
		{config.SingleNode(), true},
		{config.SymmetricPair(), false},
		{config.AsymmetricPair(1), true},
		{config.SpanFamilyH(1), true},
		{config.SpanFamilyH(4), true},
		{config.SymmetricFamilyS(2), false},
		{config.LineFamilyG(2), true},
		{config.LineFamilyG(3), true},
		{config.UniformTags(graph.Cycle(6)), false},
		{config.StaggeredClique(5), true},
		{config.TwoBlockCycle(2), false},
		{config.TwoBlockCycle(3), true},
		{config.EarlyCenterStar(5, 2), true},
	}
	for _, tc := range cases {
		rep, err := NaiveClassify(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.cfg, err)
		}
		if rep.Feasible != tc.feasible {
			t.Fatalf("%s: naive feasible=%v, want %v", tc.cfg, rep.Feasible, tc.feasible)
		}
		if rep.Feasible && rep.Leader < 0 {
			t.Fatalf("%s: feasible but no leader candidate", tc.cfg)
		}
		if !rep.Feasible && rep.Leader != -1 {
			t.Fatalf("%s: infeasible but leader %d", tc.cfg, rep.Leader)
		}
	}
}

func TestNaiveAgreesWithClassifierOnFamilies(t *testing.T) {
	cases := []*config.Config{
		config.SingleNode(),
		config.SymmetricPair(),
		config.AsymmetricPair(3),
		config.SpanFamilyH(2),
		config.SymmetricFamilyS(3),
		config.LineFamilyG(3),
		config.StaggeredPath(8, 1),
		config.TwoBlockCycle(4),
	}
	for _, cfg := range cases {
		naive, err := NaiveClassify(cfg)
		if err != nil {
			t.Fatalf("%s naive: %v", cfg, err)
		}
		exact, err := core.Classify(cfg)
		if err != nil {
			t.Fatalf("%s core: %v", cfg, err)
		}
		if naive.Feasible != exact.Feasible() {
			t.Fatalf("%s: naive=%v classifier=%v", cfg, naive.Feasible, exact.Feasible())
		}
		if naive.Iterations != exact.Iterations() {
			t.Fatalf("%s: naive iterations %d, classifier %d", cfg, naive.Iterations, exact.Iterations())
		}
		// The per-iteration partitions must induce the same equivalence
		// relation.
		for j := 0; j <= naive.Iterations; j++ {
			for v := 0; v < cfg.N(); v++ {
				for w := v + 1; w < cfg.N(); w++ {
					if naive.SameClass(j, v, w) != exact.SameClass(j, v, w) {
						t.Fatalf("%s iteration %d: partition mismatch at nodes %d,%d", cfg, j, v, w)
					}
				}
			}
		}
	}
}

func TestPropertyNaiveAgreesWithClassifierRandom(t *testing.T) {
	f := func(seed int64, sz, span uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%14) + 1
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: int(span % 5)}, rng)
		naive, err1 := NaiveClassify(cfg)
		exact, err2 := core.Classify(cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		if naive.Feasible != exact.Feasible() || naive.Iterations != exact.Iterations() {
			return false
		}
		final := naive.Iterations
		for v := 0; v < cfg.N(); v++ {
			for w := v + 1; w < cfg.N(); w++ {
				if naive.SameClass(final, v, w) != exact.SameClass(final, v, w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("naive/classifier disagreement: %v", err)
	}
}

func TestFloodMaxTDMA(t *testing.T) {
	cases := []*config.Config{
		config.SingleNode(),
		config.StaggeredPath(6, 1),
		config.StaggeredClique(5),
		config.UniformTags(graph.Cycle(7)),
		config.MustNew(graph.Grid(3, 4), make([]int, 12)),
	}
	for _, cfg := range cases {
		out, err := FloodMaxTDMA(cfg, 0)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if out.Leader != cfg.N()-1 {
			t.Fatalf("%s: flood-max elected %d, want max id %d", cfg, out.Leader, cfg.N()-1)
		}
		if out.Rounds <= 0 {
			t.Fatalf("%s: nonpositive round count", cfg)
		}
		// The baseline ignores tags: n*(D+1) slots plus termination.
		d := cfg.Graph().Diameter()
		if out.Rounds > cfg.N()*(d+1)+2 {
			t.Fatalf("%s: flood-max took %d rounds, expected at most %d", cfg, out.Rounds, cfg.N()*(d+1)+2)
		}
	}
	if _, err := FloodMaxTDMA(nil, 0); err == nil {
		t.Fatalf("nil configuration should error")
	}
}

func TestFloodMaxInsufficientFrames(t *testing.T) {
	// Place the two largest identifiers at opposite ends of a path whose
	// remaining identifiers increase towards node 6: after a single frame
	// node 7 has only heard "0" and node 6 has only heard "5", so both still
	// believe they are the maximum and the baseline must report the failure.
	g := graph.New(8)
	g.AddEdge(7, 0)
	for v := 0; v+1 <= 6; v++ {
		g.AddEdge(v, v+1)
	}
	cfg := config.MustNew(g, make([]int, 8))
	if _, err := FloodMaxTDMA(cfg, 1); err == nil {
		t.Fatalf("one frame on this path should fail to elect a unique leader")
	}
	// With enough frames the same configuration elects the maximum.
	out, err := FloodMaxTDMA(cfg, 0)
	if err != nil || out.Leader != 7 {
		t.Fatalf("full flood-max on the same path failed: %v %v", out, err)
	}
}

func TestBinarySearchSingleHop(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 33} {
		out, err := BinarySearchSingleHop(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if out.Leader != n-1 {
			t.Fatalf("n=%d: elected %d, want %d", n, out.Leader, n-1)
		}
		bits := bitsFor(n)
		if n > 1 && out.Rounds > bits+3 {
			t.Fatalf("n=%d: took %d rounds, want about %d", n, out.Rounds, bits+1)
		}
	}
	if _, err := BinarySearchSingleHop(0); err == nil {
		t.Fatalf("n=0 should error")
	}
}

func TestRandomizedSingleHop(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 2, 5, 16, 64} {
		out, err := RandomizedSingleHop(n, rng, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if out.Leader < 0 || out.Leader >= n {
			t.Fatalf("n=%d: leader %d out of range", n, out.Leader)
		}
		if out.Rounds < 1 {
			t.Fatalf("n=%d: round count %d", n, out.Rounds)
		}
	}
	if _, err := RandomizedSingleHop(0, rng, 0); err == nil {
		t.Fatalf("n=0 should error")
	}
	if _, err := RandomizedSingleHop(3, nil, 0); err == nil {
		t.Fatalf("nil rng should error")
	}
	// An absurdly small round budget can fail; the error must be reported.
	failures := 0
	for i := 0; i < 50; i++ {
		if _, err := RandomizedSingleHop(64, rng, 1); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatalf("with a one-round budget some elections must fail")
	}
}

func TestRandomizedSingleHopExpectedRounds(t *testing.T) {
	// The tournament halves the contender set roughly every successful
	// round; the average round count over many runs should stay well below
	// a generous multiple of log2(n).
	rng := rand.New(rand.NewSource(7))
	n := 256
	trials := 100
	total := 0
	for i := 0; i < trials; i++ {
		out, err := RandomizedSingleHop(n, rng, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		total += out.Rounds
	}
	avg := float64(total) / float64(trials)
	if avg > 10*float64(bitsFor(n)) {
		t.Fatalf("average rounds %.1f too high for n=%d", avg, n)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}
