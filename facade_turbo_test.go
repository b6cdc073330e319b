package anonradio

import (
	"testing"
)

func TestFacadeClassifyTurboAgrees(t *testing.T) {
	cfg := SpanFamilyH(4)
	base, err := Classify(cfg)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	turbo, err := ClassifyTurbo(cfg, ClassifyOptions{RecordSnapshots: true})
	if err != nil {
		t.Fatalf("ClassifyTurbo: %v", err)
	}
	if turbo.Feasible() != base.Feasible() || turbo.Leader != base.Leader || turbo.Iterations() != base.Iterations() {
		t.Fatalf("turbo facade diverged: %+v vs %+v", turbo.Decision, base.Decision)
	}
	lean, err := ClassifyTurbo(cfg, ClassifyOptions{})
	if err != nil {
		t.Fatalf("lean ClassifyTurbo: %v", err)
	}
	if lean.Feasible() != base.Feasible() || lean.Leader != base.Leader {
		t.Fatalf("lean turbo facade diverged")
	}
}

func TestFacadeClassifyBatchAndSurvey(t *testing.T) {
	cfgs := []*Config{
		SingleNode(),
		SymmetricPair(),
		SpanFamilyH(3),
		StaggeredClique(6),
	}
	results := ClassifyBatch(cfgs, ClassifyOptions{}, 2)
	wantFeasible := []bool{true, false, true, true}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("batch config %d: %v", i, res.Err)
		}
		if res.Report.Feasible() != wantFeasible[i] {
			t.Fatalf("batch config %d: feasible=%v, want %v", i, res.Report.Feasible(), wantFeasible[i])
		}
	}

	survey, err := SurveyParallel(40, 0, func(i int) *Config {
		return RandomConfig(12, 0.3, 3, int64(100+i))
	})
	if err != nil {
		t.Fatalf("SurveyParallel: %v", err)
	}
	if survey.Count != 40 || len(survey.Verdicts) != 40 {
		t.Fatalf("survey shape wrong: %+v", survey)
	}
	for i, ok := range survey.Verdicts {
		rep, err := Classify(RandomConfig(12, 0.3, 3, int64(100+i)))
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if rep.Feasible() != ok {
			t.Fatalf("config %d: survey verdict %v, direct %v", i, ok, rep.Feasible())
		}
	}
}

func TestFacadeSimulatorReuse(t *testing.T) {
	cfg := SpanFamilyH(3)
	d, err := BuildElection(cfg)
	if err != nil {
		t.Fatalf("BuildElection: %v", err)
	}
	sim, err := NewSimulator(d.Config)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	want, err := Simulate(d, false)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	for i := 0; i < 3; i++ {
		got, err := sim.Run(d.DRIP, SimulationOptions{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got.GlobalRounds != want.GlobalRounds {
			t.Fatalf("run %d: %d rounds, want %d", i, got.GlobalRounds, want.GlobalRounds)
		}
		for v := range want.Histories {
			if !got.Histories[v].Equal(want.Histories[v]) {
				t.Fatalf("run %d: node %d history diverged", i, v)
			}
		}
	}
}
