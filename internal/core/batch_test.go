package core

import (
	"math/rand"
	"testing"

	"anonradio/internal/config"
)

func batchConfigs(count int) []*config.Config {
	cfgs := make([]*config.Config, count)
	for i := range cfgs {
		rng := rand.New(rand.NewSource(int64(500 + i)))
		n := 1 + rng.Intn(18)
		cfgs[i] = config.Random(n, 0.3, config.UniformRandomTags{Span: i % 5}, rng)
	}
	return cfgs
}

func TestClassifyBatchMatchesSequential(t *testing.T) {
	cfgs := batchConfigs(64)
	for _, workers := range []int{0, 1, 3, 16} {
		results := ClassifyBatch(cfgs, ClassifyOptions{RecordSnapshots: true}, workers)
		if len(results) != len(cfgs) {
			t.Fatalf("workers=%d: %d results for %d configs", workers, len(results), len(cfgs))
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("workers=%d config %d: %v", workers, i, res.Err)
			}
			if res.Index != i {
				t.Fatalf("workers=%d: result %d has index %d", workers, i, res.Index)
			}
			want, err := Classify(cfgs[i])
			if err != nil {
				t.Fatalf("config %d baseline: %v", i, err)
			}
			if !reportsEquivalent(want, res.Report) {
				t.Fatalf("workers=%d config %d: batch report diverged from baseline", workers, i)
			}
		}
	}
}

func TestClassifyBatchEmptyAndErrors(t *testing.T) {
	if res := ClassifyBatch(nil, ClassifyOptions{}, 4); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	good := config.SingleNode()
	results := ClassifyBatch([]*config.Config{nil, good}, ClassifyOptions{}, 2)
	if results[0].Err == nil {
		t.Fatalf("nil configuration should fail")
	}
	if results[1].Err != nil || !results[1].Report.Feasible() {
		t.Fatalf("valid configuration should classify despite a failing sibling: %+v", results[1])
	}
}

func TestSurveyParallelDeterministic(t *testing.T) {
	gen := func(i int) *config.Config {
		rng := rand.New(rand.NewSource(int64(900 + i)))
		return config.Random(1+i%20, 0.25, config.UniformRandomTags{Span: i % 4}, rng)
	}
	count := 120
	want, err := SurveyParallel(count, 1, gen)
	if err != nil {
		t.Fatalf("sequential survey: %v", err)
	}
	// Cross-check every verdict against the baseline classifier.
	for i := 0; i < count; i++ {
		rep, err := Classify(gen(i))
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if rep.Feasible() != want.Verdicts[i] {
			t.Fatalf("config %d: survey verdict %v, baseline %v", i, want.Verdicts[i], rep.Feasible())
		}
		if rep.Iterations() != want.Iterations[i] {
			t.Fatalf("config %d: survey iterations %d, baseline %d", i, want.Iterations[i], rep.Iterations())
		}
	}
	for _, workers := range []int{2, 8} {
		got, err := SurveyParallel(count, workers, gen)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Feasible != want.Feasible || got.Count != want.Count {
			t.Fatalf("workers=%d: aggregate diverged: %+v vs %+v", workers, got, want)
		}
		for i := range want.Verdicts {
			if got.Verdicts[i] != want.Verdicts[i] || got.Iterations[i] != want.Iterations[i] {
				t.Fatalf("workers=%d: per-config result %d diverged", workers, i)
			}
		}
	}
}

func TestSurveyParallelEdgeCases(t *testing.T) {
	if _, err := SurveyParallel(10, 0, nil); err == nil {
		t.Fatalf("nil generator should error")
	}
	if _, err := SurveyParallel(-1, 0, func(int) *config.Config { return nil }); err == nil {
		t.Fatalf("negative count should error")
	}
	empty, err := SurveyParallel(0, 0, func(int) *config.Config { return config.SingleNode() })
	if err != nil || empty.Count != 0 || empty.FeasibleFraction() != 0 || empty.MeanIterations() != 0 {
		t.Fatalf("empty survey: %+v, %v", empty, err)
	}
	if _, err := SurveyParallel(3, 2, func(int) *config.Config { return nil }); err == nil {
		t.Fatalf("nil configurations should surface as an error")
	}
	s, err := SurveyParallel(4, 2, func(int) *config.Config { return config.SingleNode() })
	if err != nil {
		t.Fatalf("%v", err)
	}
	if s.Feasible != 4 || s.FeasibleFraction() != 1 {
		t.Fatalf("single-node survey should be fully feasible: %+v", s)
	}
}
