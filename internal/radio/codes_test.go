package radio

import (
	"math/rand"
	"strings"
	"testing"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/drip"
	"anonradio/internal/history"
)

// Tests of coded runs: a CodedProtocol's histories are recorded one byte per
// entry, and decoding them must give exactly the vectors GoroutinePerNode
// records entry by entry.

// randomCanonicalCase builds the canonical DRIP of a random connected
// configuration of at most 13 nodes and span at most 5.
func randomCanonicalCase(t *testing.T, seed int64) canonicalCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(12)
	cfg := config.Random(n, 0.15+0.5*rng.Float64(), config.UniformRandomTags{Span: rng.Intn(6)}, rng)
	rep, err := core.Classify(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	d, err := canonical.New(rep)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return canonicalCase{name: cfg.String(), cfg: rep.Config, proto: d}
}

// sameCodedOutcome fails unless the coded result got decodes to the
// oracle's histories and agrees on every piece of bookkeeping.
func sameCodedOutcome(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.Histories) != 0 || len(got.Codes) != len(want.Histories) {
		t.Fatalf("%s: coded result holds %d vectors and %d code histories", name, len(got.Histories), len(got.Codes))
	}
	if got.GlobalRounds != want.GlobalRounds || got.Faults != want.Faults {
		t.Fatalf("%s: %d rounds, faults %+v; oracle %d, %+v", name, got.GlobalRounds, got.Faults, want.GlobalRounds, want.Faults)
	}
	for v, codes := range got.Codes {
		h := history.AppendDecoded(nil, codes, canonical.Message)
		if !h.Equal(want.Histories[v]) {
			t.Fatalf("%s: node %d codes decode to %s, oracle %s", name, v, h, want.Histories[v])
		}
		for i := range h {
			if h[i] != want.Histories[v][i] {
				t.Fatalf("%s: node %d entry %d is %#v, oracle %#v", name, v, i, h[i], want.Histories[v][i])
			}
		}
		if got.WakeRound[v] != want.WakeRound[v] || got.Forced[v] != want.Forced[v] || got.DoneLocal[v] != want.DoneLocal[v] {
			t.Fatalf("%s: node %d bookkeeping differs from the oracle", name, v)
		}
	}
}

// TestPropertyCodesMatchOracle runs the agenda's canonical cases and 200
// random canonical configurations, clean and under a fault plan: RunCodes
// must record codes that decode to exactly the oracle's histories, and
// never build a history vector.
func TestPropertyCodesMatchOracle(t *testing.T) {
	cases := canonicalCases(t)
	for seed := int64(0); seed < 200; seed++ {
		cases = append(cases, randomCanonicalCase(t, 1000+seed))
	}
	for i, c := range cases {
		plans := []*FaultPlan{nil, randomFaultPlan(uint64(i)*2654435761+17, c.cfg.N())}
		sim := newSimulator(t, c.cfg)
		for _, plan := range plans {
			opts := Options{Fault: plan}
			want, err := GoroutinePerNode{}.Run(c.cfg, c.proto, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			name := c.name
			if plan != nil {
				name += " faulted"
			}
			got, err := sim.RunCodes(c.proto, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameCodedOutcome(t, name, got, want)
			for v := range sim.states {
				if cap(sim.states[v].hist) != 0 {
					t.Fatalf("%s: node %d holds a history vector after coded runs", name, v)
				}
			}
		}
	}
}

// TestRunMaterializesCodedHistories pins the Result contract: Run on a
// coded protocol returns the decoded vectors and the codes together, and a
// later RunCodes on the same simulator empties the vectors instead of
// leaving the previous run's behind.
func TestRunMaterializesCodedHistories(t *testing.T) {
	c := canonicalCases(t)[0]
	sim, err := NewSimulator(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := GoroutinePerNode{}.Run(c.cfg, c.proto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(c.proto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(got, want, c.cfg.N()) || len(got.Codes) != c.cfg.N() {
		t.Fatalf("Run: materialized outcome differs from the oracle")
	}
	if got, err = sim.RunCodes(c.proto, Options{}); err != nil {
		t.Fatal(err)
	}
	sameCodedOutcome(t, "RunCodes after Run", got, want)
	var vec drip.Protocol = drip.BeepAt{Round: 1, StopAfter: 4}
	if got, err = sim.Run(vec, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(got.Codes) != 0 || len(got.Histories) != c.cfg.N() {
		t.Fatalf("vector run after coded runs: %d code histories, %d vectors", len(got.Codes), len(got.Histories))
	}
}

// foreignCoder is a coded protocol that breaks its contract: every node
// transmits "2" in local round 1, a message its histories cannot code.
type foreignCoder struct{}

func (foreignCoder) CodedMessage() string { return canonical.Message }

func (foreignCoder) ActCodes(h []byte) drip.Action { return foreignCoder{}.Act(nil) }

func (foreignCoder) Act(history.Vector) drip.Action { return drip.TransmitAction("2") }

// TestCodedRunRejectsForeignMessage pins that a message other than the coded
// one is never recorded as CodeMessage: the run fails, through Run and
// RunCodes, and the simulator runs cleanly afterwards.
func TestCodedRunRejectsForeignMessage(t *testing.T) {
	cfg := config.StaggeredClique(5)
	c := canonicalCases(t)[0]
	sim := newSimulator(t, cfg)
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return sim.Run(foreignCoder{}, Options{}) },
		func() (*Result, error) { return sim.RunCodes(foreignCoder{}, Options{}) },
	} {
		res, err := run()
		if err == nil || !strings.Contains(err.Error(), `transmitted "2"`) || res != nil {
			t.Fatalf("foreign message gave %v, %v", res, err)
		}
	}
	if err := sim.Reset(c.cfg); err != nil {
		t.Fatal(err)
	}
	want, err := GoroutinePerNode{}.Run(c.cfg, c.proto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunCodes(c.proto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameCodedOutcome(t, "after a foreign message", got, want)
}

// TestCodedRunSteadyStateAllocs pins the serving path's run: once warm,
// RunCodes allocates nothing.
func TestCodedRunSteadyStateAllocs(t *testing.T) {
	c := canonicalCases(t)[1]
	sim, err := NewSimulator(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var proto CodedProtocol = c.proto
	run := func() {
		if _, err := sim.RunCodes(proto, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("warm coded run allocates %.1f times, want 0", allocs)
	}
}
