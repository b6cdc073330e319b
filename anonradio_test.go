package anonradio

import (
	"errors"
	"strings"
	"testing"
)

func TestNewConfigValidation(t *testing.T) {
	cfg, err := NewConfig(3, [][2]int{{0, 1}, {1, 2}}, []int{0, 1, 2}, "demo")
	if err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
	if cfg.N() != 3 || cfg.Name != "demo" || cfg.Span() != 2 {
		t.Fatalf("configuration fields wrong: %v", cfg)
	}
	if _, err := NewConfig(3, [][2]int{{0, 5}}, []int{0, 0, 0}, ""); err == nil {
		t.Fatalf("out-of-range edge should be rejected")
	}
	if _, err := NewConfig(3, [][2]int{{1, 1}}, []int{0, 0, 0}, ""); err == nil {
		t.Fatalf("self-loop should be rejected")
	}
	if _, err := NewConfig(3, [][2]int{{0, 1}}, []int{0, 0, 0}, ""); err == nil {
		t.Fatalf("disconnected graph should be rejected")
	}
	if _, err := NewConfig(2, [][2]int{{0, 1}}, []int{0}, ""); err == nil {
		t.Fatalf("tag count mismatch should be rejected")
	}
}

func TestParseConfigRoundTrip(t *testing.T) {
	cfg := SpanFamilyH(2)
	parsed, err := ParseConfig(strings.NewReader(cfg.Marshal()))
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	if !parsed.Equal(cfg) {
		t.Fatalf("round trip mismatch")
	}
}

func TestRandomConfigDeterministic(t *testing.T) {
	a := RandomConfig(12, 0.3, 4, 7)
	b := RandomConfig(12, 0.3, 4, 7)
	c := RandomConfig(12, 0.3, 4, 8)
	if !a.Equal(b) {
		t.Fatalf("same seed should give the same configuration")
	}
	if a.Equal(c) {
		t.Fatalf("different seeds should give different configurations")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("random config invalid: %v", err)
	}
}

func TestClassifyAndIsFeasible(t *testing.T) {
	rep, err := Classify(SpanFamilyH(2))
	if err != nil || !rep.Feasible() {
		t.Fatalf("H_2 should classify as feasible: %v", err)
	}
	ok, err := IsFeasible(SymmetricPair())
	if err != nil || ok {
		t.Fatalf("symmetric pair should be infeasible")
	}
}

func TestElectEndToEnd(t *testing.T) {
	cfg, err := NewConfig(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, []int{2, 0, 0, 3}, "readme-demo")
	if err != nil {
		t.Fatalf("%v", err)
	}
	out, d, err := Elect(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !out.Elected() || out.Leader() != d.ExpectedLeader {
		t.Fatalf("election failed: %v", out.Leaders)
	}
	if out.Rounds > d.RoundBound {
		t.Fatalf("rounds %d above bound %d", out.Rounds, d.RoundBound)
	}
}

// TestElectWithEngines checks that Elect, ElectDedicated on a fresh build
// and the one-shot Simulate agree on the leader's history and the round
// count.
func TestElectWithEngines(t *testing.T) {
	cfg := LineFamilyG(2)
	out, _, err := Elect(cfg)
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	d, err := BuildElection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ElectDedicated(d)
	if err != nil {
		t.Fatalf("ElectDedicated: %v", err)
	}
	if out.Leader() != direct.Leader() || out.Rounds != direct.Rounds {
		t.Fatalf("Elect and ElectDedicated disagree: %v vs %v", out, direct)
	}
	res, err := Simulate(d, false)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.GlobalRounds != out.Rounds || !res.Histories[out.Leader()].Equal(direct.Result.Histories[out.Leader()]) {
		t.Fatalf("Simulate ran %d rounds, the election %d, or the leader's history diverged", res.GlobalRounds, out.Rounds)
	}
}

func TestElectInfeasible(t *testing.T) {
	if _, _, err := Elect(SymmetricFamilyS(2)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
}

func TestSimulate(t *testing.T) {
	_, d, err := Elect(SpanFamilyH(1))
	if err != nil {
		t.Fatalf("%v", err)
	}
	res, err := Simulate(d, true)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(res.Histories) != 4 || res.Trace == nil {
		t.Fatalf("simulation result incomplete")
	}
}

func TestCrossCheckFeasibility(t *testing.T) {
	feasible, agree, err := CrossCheckFeasibility(LineFamilyG(2))
	if err != nil || !feasible || !agree {
		t.Fatalf("cross-check failed: %v %v %v", feasible, agree, err)
	}
	feasible, agree, err = CrossCheckFeasibility(SymmetricFamilyS(1))
	if err != nil || feasible || !agree {
		t.Fatalf("cross-check failed: %v %v %v", feasible, agree, err)
	}
}

func TestFamilies(t *testing.T) {
	if SingleNode().N() != 1 || AsymmetricPair(2).Span() != 2 {
		t.Fatalf("family re-exports broken")
	}
	if EarlyCenterStar(5, 3).MaxDegree() != 4 {
		t.Fatalf("star family broken")
	}
	if StaggeredPath(4, 2).Span() != 6 || StaggeredClique(4).N() != 4 {
		t.Fatalf("staggered families broken")
	}
}

func TestRunExperimentSingle(t *testing.T) {
	table, err := RunExperiment("E4", true, 1)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(table.Rows) == 0 || !strings.Contains(table.String(), "E4") {
		t.Fatalf("experiment table empty")
	}
	if _, err := RunExperiment("E99", true, 1); err == nil {
		t.Fatalf("unknown experiment should error")
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 12 || ids[0] != "E1" || ids[7] != "E9" || ids[10] != "E18" || ids[11] != "A1" {
		t.Fatalf("experiment ids wrong: %v", ids)
	}
}

func TestRunExperimentsQuickSubsetSmoke(t *testing.T) {
	// RunExperiments executes the full suite; in the unit tests we only
	// smoke-test the wiring through a single small experiment above and the
	// writer error path here.
	w := &failingWriter{}
	if err := RunExperiments(w, true, 1); err == nil {
		t.Fatalf("writer failure should surface")
	}
}

type failingWriter struct{}

func (*failingWriter) Write(p []byte) (int, error) {
	return 0, errors.New("sink closed")
}

func TestFacadeFaultedSimulation(t *testing.T) {
	// The fault seam through the public API: a faulted election runs through
	// SimulationOptions.Fault, an all-zero plan reproduces the clean outcome,
	// and the plan is deterministic across runs.
	_, d, err := Elect(StaggeredClique(8))
	if err != nil {
		t.Fatalf("%v", err)
	}
	clean, err := d.Elect(SimulationOptions{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	leader, rounds := clean.Leader(), clean.Rounds
	zero, err := d.Elect(SimulationOptions{Fault: &FaultPlan{Seed: 3}})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if zero.Leader() != leader || zero.Rounds != rounds {
		t.Fatalf("all-zero fault plan diverged: %d/%d vs %d/%d", zero.Leader(), zero.Rounds, leader, rounds)
	}
	plan := &FaultPlan{Seed: 3, Drop: 0.4, Noise: 0.1, Outages: []FaultOutage{{Node: 0, From: 0, To: 2}}}
	a, err := d.Elect(SimulationOptions{Fault: plan})
	if err != nil {
		t.Fatalf("%v", err)
	}
	aLeaders := append([]int(nil), a.Leaders...)
	b, err := d.Elect(SimulationOptions{Fault: plan})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(b.Leaders) != len(aLeaders) || b.Rounds != a.Rounds {
		t.Fatalf("faulted election not deterministic: %v/%d vs %v/%d", b.Leaders, b.Rounds, aLeaders, a.Rounds)
	}
}
