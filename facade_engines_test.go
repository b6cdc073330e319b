package anonradio

import "testing"

// TestElectWithEveryEngineKind checks that the one-call Elect, a compiled
// artifact's ElectCompiled and a loaded artifact's ElectDedicated elect the
// designated leader in the same number of rounds.
func TestElectWithEveryEngineKind(t *testing.T) {
	cfg := SpanFamilyH(2)
	want, d, err := Elect(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if d.ExpectedLeader != want.Leader() {
		t.Fatalf("elected %d, designated %d", want.Leader(), d.ExpectedLeader)
	}
	compiled, loaded, err := ElectCompiled(CompileElection(d), cfg)
	if err != nil {
		t.Fatalf("ElectCompiled: %v", err)
	}
	again, err := ElectDedicated(loaded)
	if err != nil {
		t.Fatalf("ElectDedicated: %v", err)
	}
	for _, out := range []*ElectionOutcome{compiled, again} {
		if out.Leader() != want.Leader() || out.Rounds != want.Rounds {
			t.Fatalf("leader %d rounds %d, want %d/%d", out.Leader(), out.Rounds, want.Leader(), want.Rounds)
		}
	}
}

// TestParallelSimulatorFacade checks that the facade's reusable Simulator,
// run three times, reproduces the one-shot Simulate bit for bit.
func TestParallelSimulatorFacade(t *testing.T) {
	cfg := StaggeredClique(12)
	_, d, err := Elect(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	want, err := Simulate(d, false)
	if err != nil {
		t.Fatalf("%v", err)
	}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	for run := 0; run < 3; run++ {
		res, err := sim.Run(d.DRIP, SimulationOptions{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		if res.GlobalRounds != want.GlobalRounds {
			t.Fatalf("run %d: reused simulator rounds %d, one-shot %d", run, res.GlobalRounds, want.GlobalRounds)
		}
		for v := 0; v < cfg.N(); v++ {
			if !res.Histories[v].Equal(want.Histories[v]) {
				t.Fatalf("run %d: node %d diverged from the one-shot run", run, v)
			}
		}
	}
}
