package radio

import (
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/history"
)

func sameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if a.GlobalRounds != b.GlobalRounds {
		t.Fatalf("global rounds %d != %d", a.GlobalRounds, b.GlobalRounds)
	}
	for v := range a.Histories {
		if !a.Histories[v].Equal(b.Histories[v]) {
			t.Fatalf("node %d histories differ:\n%s\n%s", v, a.Histories[v], b.Histories[v])
		}
		if a.WakeRound[v] != b.WakeRound[v] || a.Forced[v] != b.Forced[v] || a.DoneLocal[v] != b.DoneLocal[v] {
			t.Fatalf("node %d state differs", v)
		}
	}
}

// TestSimulatorReuseMatchesOneShot runs the same protocol repeatedly on one
// reusable Simulator and checks every run against the one-shot engine.
func TestSimulatorReuseMatchesOneShot(t *testing.T) {
	cases := []*config.Config{
		config.StaggeredClique(9),
		config.LineFamilyG(2),
		config.SpanFamilyH(4),
		config.EarlyCenterStar(6, 2),
	}
	proto := drip.BeepAt{Round: 1, StopAfter: 4}
	for _, cfg := range cases {
		want, err := Sequential{}.Run(cfg, proto, Options{})
		if err != nil {
			t.Fatalf("%s one-shot: %v", cfg, err)
		}
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		for i := 0; i < 3; i++ {
			got, err := sim.Run(proto, Options{})
			if err != nil {
				t.Fatalf("%s run %d: %v", cfg, i, err)
			}
			sameResult(t, want, got)
		}
	}
}

func TestSimulatorValidation(t *testing.T) {
	if _, err := NewSimulator(nil); err == nil {
		t.Fatalf("nil configuration should error")
	}
	sim, err := NewSimulator(config.StaggeredClique(3))
	if err != nil {
		t.Fatalf("%v", err)
	}
	if _, err := sim.Run(nil, Options{}); err == nil {
		t.Fatalf("nil protocol should error")
	}
	if _, err := sim.RunProtocols(nil, Options{}); err == nil {
		t.Fatalf("protocol count mismatch should error")
	}
	if _, err := sim.RunProtocols([]drip.Protocol{nil, nil, nil}, Options{}); err == nil {
		t.Fatalf("nil per-node protocol should error")
	}
	if sim.Config().N() != 3 {
		t.Fatalf("Config() does not return the bound configuration")
	}
}

// TestSimulatorSteadyStateAllocs is the acceptance check for the zero-alloc
// round loop: once the simulator's buffers are warm, a full untraced run
// with a non-allocating protocol performs zero heap allocations.
func TestSimulatorSteadyStateAllocs(t *testing.T) {
	cfg := config.StaggeredClique(32)
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	// Hold the protocol as an interface value so the measurement sees the
	// engine's allocations, not the caller's interface boxing.
	var proto drip.Protocol = drip.BeepAt{Round: 1, StopAfter: 4}
	run := func() {
		if _, err := sim.Run(proto, Options{}); err != nil {
			t.Fatalf("%v", err)
		}
	}
	run() // warm the history and result buffers
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state simulator run allocates %.1f times, want 0", allocs)
	}
}

// TestSimulatorRecoversFromAbortedRun pins the dirty-medium regression: a
// run that returns mid-round (round limit or invalid action) leaves the
// transmit counters of that round on the dirty list, and the next run must
// drain them — otherwise stale counts produce spurious forced wake-ups.
func TestSimulatorRecoversFromAbortedRun(t *testing.T) {
	cfg := config.StaggeredClique(6)
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	var good drip.Protocol = drip.BeepAt{Round: 1, StopAfter: 4}
	want, err := sim.Run(good, Options{})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	wantRounds := want.GlobalRounds
	wantHist0 := want.Histories[0].Clone()

	// Abort a run in a round where nodes are transmitting: cap the rounds
	// low enough that transmissions from round 2 onwards are still live.
	if _, err := sim.Run(good, Options{MaxRounds: 3}); err == nil {
		t.Fatalf("expected round-limit error")
	}
	// An invalid action also aborts mid-round, after the medium was dirtied
	// by the simultaneously transmitting neighbours.
	bad := drip.Func(func(h history.Vector) drip.Action {
		if len(h) >= 2 {
			return drip.Action{Kind: 42}
		}
		return drip.TransmitAction("x")
	})
	if _, err := sim.Run(bad, Options{MaxRounds: 50}); err == nil {
		t.Fatalf("expected invalid-action error")
	}

	got, err := sim.Run(good, Options{})
	if err != nil {
		t.Fatalf("post-abort run: %v", err)
	}
	if got.GlobalRounds != wantRounds || !got.Histories[0].Equal(wantHist0) {
		t.Fatalf("simulator did not recover from aborted runs: rounds %d (want %d), hist %s (want %s)",
			got.GlobalRounds, wantRounds, got.Histories[0], wantHist0)
	}
}

// TestSimulatorRoundLimit preserves the partial-result contract on the
// reusable engine.
func TestSimulatorRoundLimit(t *testing.T) {
	cfg := config.StaggeredClique(4)
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	// A protocol that never terminates.
	forever := drip.Func(func(h history.Vector) drip.Action { return drip.ListenAction() })
	res, err := sim.Run(forever, Options{MaxRounds: 10})
	if err == nil {
		t.Fatalf("expected round-limit error")
	}
	if res == nil || res.GlobalRounds != 10 {
		t.Fatalf("partial result missing or wrong rounds: %+v", res)
	}
}
