package radio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/history"
)

// TestFaultPlanEmptyAndValidate pins the plan classification: the seed alone
// never makes a plan non-empty, rates must be proper probabilities, and
// outage windows must name existing nodes.
func TestFaultPlanEmptyAndValidate(t *testing.T) {
	var nilPlan *FaultPlan
	if !nilPlan.Empty() {
		t.Fatalf("nil plan should be empty")
	}
	if !(&FaultPlan{Seed: 42}).Empty() {
		t.Fatalf("seed-only plan should be empty")
	}
	if (&FaultPlan{Drop: 0.1}).Empty() || (&FaultPlan{Noise: 0.1}).Empty() {
		t.Fatalf("rated plan should not be empty")
	}
	if (&FaultPlan{Outages: []Outage{{Node: 0, From: 0, To: 1}}}).Empty() {
		t.Fatalf("outage plan should not be empty")
	}

	bad := []*FaultPlan{
		{Drop: -0.1},
		{Drop: 1.5},
		{Drop: math.NaN()},
		{Noise: -0.1},
		{Noise: 1.5},
		{Noise: math.NaN()},
		{Outages: []Outage{{Node: -1, From: 0, To: 1}}},
		{Outages: []Outage{{Node: 5, From: 0, To: 1}}},
		{Outages: []Outage{{Node: 0, From: -1, To: 1}}},
	}
	for i, p := range bad {
		if err := p.Validate(3); err == nil {
			t.Errorf("plan %d should fail validation", i)
		}
	}
	if err := (&FaultPlan{Seed: 7, Drop: 0.5, Noise: 1, Outages: []Outage{{Node: 2, From: 0, To: 9}}}).Validate(3); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	// Engines surface the validation error.
	cfg := config.SymmetricPair()
	for _, e := range engines {
		if _, err := e.Run(cfg, drip.SilentTerminator{}, Options{Fault: &FaultPlan{Drop: 2}}); err == nil {
			t.Errorf("%s: invalid fault plan should error", e.Name())
		}
	}
}

// TestPropertyEmptyFaultPlanBitIdentical is the satellite property: an
// all-zero FaultPlan — any seed, zero rates, no live outage windows — is
// bit-identical to the clean Simulator on the Sequential engine and the
// goroutine-per-node oracle. A plan holding only empty windows (From >= To) takes
// the faulted code path and must still reproduce the clean medium exactly.
func TestPropertyEmptyFaultPlanBitIdentical(t *testing.T) {
	f := func(seed int64, fseed uint64, sz, span uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%12) + 2
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: int(span % 6)}, rng)
		proto := randomProtocol(seed)
		clean := Options{MaxRounds: 2000}
		want, err1 := Sequential{}.Run(cfg, proto, clean)

		plans := []*FaultPlan{
			{Seed: fseed},
			{Seed: fseed, Outages: []Outage{{Node: 0, From: 3, To: 3}, {Node: n - 1, From: 9, To: 2}}},
		}
		for _, plan := range plans {
			opts := Options{MaxRounds: 2000, Fault: plan}
			for _, e := range engines {
				res, err2 := e.Run(cfg, proto, opts)
				if (err1 == nil) != (err2 == nil) {
					return false
				}
				if err1 != nil {
					continue
				}
				if !sameOutcome(want, res, n) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatalf("empty fault plan diverged from clean medium: %v", err)
	}
}

// randomFaultPlan draws a live plan with moderate rates and a couple of
// outage windows, keyed entirely by the inputs.
func randomFaultPlan(fseed uint64, n int) *FaultPlan {
	return &FaultPlan{
		Seed:  fseed,
		Drop:  float64(fseed%7) / 10,
		Noise: float64((fseed>>3)%5) / 10,
		Outages: []Outage{
			{Node: int(fseed % uint64(n)), From: int(fseed % 5), To: int(fseed%5) + 1 + int(fseed%4)},
			{Node: int((fseed >> 5) % uint64(n)), From: 2, To: 6},
		},
	}
}

// TestPropertyFaultSeedDeterminism is the determinism satellite: the same
// fault seed produces byte-identical faulted histories on the Sequential
// engine, the independent goroutine-per-node coordinator (whose schedule
// differs in every round), and repeated runs on a reused simulator.
func TestPropertyFaultSeedDeterminism(t *testing.T) {
	f := func(seed int64, fseed uint64, sz, span uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%12) + 2
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: int(span % 6)}, rng)
		proto := randomProtocol(seed)
		opts := Options{MaxRounds: 2000, Fault: randomFaultPlan(fseed, n)}

		want, err1 := Sequential{}.Run(cfg, proto, opts)
		for _, e := range engines {
			res, err2 := e.Run(cfg, proto, opts)
			if (err1 == nil) != (err2 == nil) {
				return false
			}
			if err1 != nil {
				continue
			}
			if !sameOutcome(want, res, n) {
				return false
			}
		}
		if err1 != nil {
			return true
		}
		// Repeated runs on one reused simulator are stable too.
		sim, err := NewSimulator(cfg)
		if err != nil {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			res, err2 := sim.Run(proto, opts)
			if err2 != nil || !sameOutcome(want, res, n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatalf("fault seed determinism violated: %v", err)
	}
}

// TestFaultDeterminismAcrossReset rebinds a warm simulator to a different
// configuration and checks the faulted run still matches a fresh engine —
// the outage-depth scratch must not leak state across Reset.
func TestFaultDeterminismAcrossReset(t *testing.T) {
	cfgA := config.StaggeredClique(12)
	cfgB := config.EarlyCenterStar(8, 6)
	proto := drip.BeepAt{Round: 1, StopAfter: 4}
	opts := Options{Fault: &FaultPlan{
		Seed:    99,
		Drop:    0.3,
		Noise:   0.2,
		Outages: []Outage{{Node: 1, From: 0, To: 4}},
	}}

	sim, err := NewSimulator(cfgA)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if _, err := sim.Run(proto, opts); err != nil {
		t.Fatalf("faulted run on cfgA: %v", err)
	}
	if err := sim.Reset(cfgB); err != nil {
		t.Fatalf("reset: %v", err)
	}
	got, err := sim.Run(proto, opts)
	if err != nil {
		t.Fatalf("faulted run on cfgB: %v", err)
	}
	want, err := Sequential{}.Run(cfgB, proto, opts)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !sameOutcome(want, got, cfgB.N()) {
		t.Fatalf("faulted run after Reset diverged from fresh engine")
	}
}

// TestFaultDropOneSilencesMedium pins the drop semantics at the boundary:
// with Drop = 1 no delivery ever lands, so the star's leaves are never
// force-woken and wake spontaneously at their tags, and no history contains
// a message or a collision.
func TestFaultDropOneSilencesMedium(t *testing.T) {
	cfg := config.EarlyCenterStar(4, 5)
	proto := drip.BeepAt{Round: 1, StopAfter: 3}
	opts := Options{Fault: &FaultPlan{Seed: 1, Drop: 1}}
	for _, e := range engines {
		res, err := e.Run(cfg, proto, opts)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for v := 1; v < cfg.N(); v++ {
			if res.Forced[v] || res.WakeRound[v] != 5 {
				t.Fatalf("%s: leaf %d woke forced=%v at %d, want spontaneous at 5", e.Name(), v, res.Forced[v], res.WakeRound[v])
			}
		}
		for v := 0; v < cfg.N(); v++ {
			for _, entry := range res.Histories[v] {
				if entry.Kind != history.Silence {
					t.Fatalf("%s: node %d heard %v under total drop", e.Name(), v, entry)
				}
			}
		}
	}
}

// TestFaultOutageWindow pins the outage semantics: an outage covering
// exactly the centre's transmission round makes the transmission reach
// nobody, while the same plan with the window elsewhere leaves delivery
// intact. Tag-based wake-ups fire during an outage (the tag is a clock, not
// a radio event).
func TestFaultOutageWindow(t *testing.T) {
	cfg := config.EarlyCenterStar(4, 5)
	proto := drip.BeepAt{Round: 1, StopAfter: 3}

	covering := Options{Fault: &FaultPlan{Seed: 3, Outages: []Outage{{Node: 0, From: 1, To: 2}}}}
	missing := Options{Fault: &FaultPlan{Seed: 3, Outages: []Outage{{Node: 0, From: 2, To: 3}}}}
	for _, e := range engines {
		res, err := e.Run(cfg, proto, covering)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		// Centre is down in global round 1 (its transmit round): leaves hear
		// nothing and wake at their tag instead.
		for v := 1; v < cfg.N(); v++ {
			if res.Forced[v] || res.WakeRound[v] != 5 {
				t.Fatalf("%s: leaf %d reached through outaged transmitter", e.Name(), v)
			}
		}
		// The centre still woke spontaneously at its tag in round 0.
		if res.WakeRound[0] != 0 || res.Forced[0] {
			t.Fatalf("%s: centre wake wrong under outage", e.Name())
		}

		res, err = e.Run(cfg, proto, missing)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for v := 1; v < cfg.N(); v++ {
			if !res.Forced[v] || res.WakeRound[v] != 1 {
				t.Fatalf("%s: leaf %d not force-woken when outage misses the transmit round", e.Name(), v)
			}
		}
	}
}

// TestFaultOutageReceiverHearsSilence pins the receive side of an outage: a
// node whose radio is off while a neighbour transmits records silence, and
// an awake outaged listener does too.
func TestFaultOutageReceiverHearsSilence(t *testing.T) {
	cfg := config.EarlyCenterStar(4, 5)
	proto := drip.BeepAt{Round: 1, StopAfter: 3}
	// Leaf 1's radio is off for the whole run; leaves 2 and 3 are fine.
	opts := Options{Fault: &FaultPlan{Seed: 3, Outages: []Outage{{Node: 1, From: 0, To: 100}}}}
	for _, e := range engines {
		res, err := e.Run(cfg, proto, opts)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Forced[1] || res.WakeRound[1] != 5 {
			t.Fatalf("%s: outaged leaf was force-woken", e.Name())
		}
		for _, entry := range res.Histories[1] {
			if entry.Kind != history.Silence {
				t.Fatalf("%s: outaged leaf heard %v", e.Name(), entry)
			}
		}
		for v := 2; v < cfg.N(); v++ {
			if !res.Forced[v] || res.WakeRound[v] != 1 {
				t.Fatalf("%s: healthy leaf %d affected by another node's outage", e.Name(), v)
			}
		}
	}
}

// TestFaultNoiseNeverWakes pins the noise semantics: injected noise is a
// collision, and a collision never wakes a sleeping node (the model's
// corner-case rule), so under Noise = 1 every node wakes at its tag and
// every perception is a collision entry.
func TestFaultNoiseNeverWakes(t *testing.T) {
	cfg := config.EarlyCenterStar(4, 5)
	proto := drip.BeepAt{Round: 1, StopAfter: 3}
	opts := Options{Fault: &FaultPlan{Seed: 8, Noise: 1}}
	for _, e := range engines {
		res, err := e.Run(cfg, proto, opts)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for v := 0; v < cfg.N(); v++ {
			if res.Forced[v] || res.WakeRound[v] != cfg.Tag(v) {
				t.Fatalf("%s: node %d woke forced=%v at %d under pure noise", e.Name(), v, res.Forced[v], res.WakeRound[v])
			}
			// The wake entry is noise (spontaneous wake in a noisy round).
			if res.Histories[v][0].Kind != history.Noise {
				t.Fatalf("%s: node %d H[0] = %v, want noise", e.Name(), v, res.Histories[v][0])
			}
		}
	}
}

// TestFaultOverlappingOutagesDepth pins the depth counting: two overlapping
// windows of one node keep it down until the *later* window ends.
func TestFaultOverlappingOutagesDepth(t *testing.T) {
	cfg := config.EarlyCenterStar(4, 5)
	proto := drip.BeepAt{Round: 1, StopAfter: 3}
	// Both windows cover round 1; the union is [0, 3).
	opts := Options{Fault: &FaultPlan{Seed: 3, Outages: []Outage{
		{Node: 0, From: 0, To: 2},
		{Node: 0, From: 1, To: 3},
	}}}
	want, err := Sequential{}.Run(cfg, proto, Options{Fault: &FaultPlan{Seed: 3, Outages: []Outage{{Node: 0, From: 0, To: 3}}}})
	if err != nil {
		t.Fatalf("%v", err)
	}
	got, err := Sequential{}.Run(cfg, proto, opts)
	if err != nil {
		t.Fatalf("%v", err)
	}
	sameResult(t, want, got)
	for v := 1; v < cfg.N(); v++ {
		if got.Forced[v] {
			t.Fatalf("leaf %d force-woken through overlapping outage", v)
		}
	}
}

// TestFaultedRunSteadyStateAllocs is the radio half of the allocation
// satellite: a warm simulator running with a live fault plan — drops, noise
// and outage windows all active — allocates nothing.
func TestFaultedRunSteadyStateAllocs(t *testing.T) {
	cfg := config.StaggeredClique(24)
	var proto drip.Protocol = drip.BeepAt{Round: 1, StopAfter: 4}
	opts := Options{Fault: &FaultPlan{
		Seed:    5,
		Drop:    0.2,
		Noise:   0.1,
		Outages: []Outage{{Node: 3, From: 0, To: 6}, {Node: 7, From: 2, To: 4}},
	}}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	run := func() {
		if _, err := sim.Run(proto, opts); err != nil {
			t.Fatalf("%v", err)
		}
	}
	run() // warm buffers, including the outage-depth scratch
	if allocs := testing.AllocsPerRun(30, run); allocs != 0 {
		t.Errorf("faulted steady-state run allocates %.1f times, want 0", allocs)
	}
}

// benchSim builds a warm reusable simulator for the fault benchmarks.
func benchSim(b *testing.B, opts Options) (*Simulator, drip.Protocol) {
	b.Helper()
	cfg := config.StaggeredClique(64)
	var proto drip.Protocol = drip.BeepAt{Round: 1, StopAfter: 4}
	sim, err := NewSimulator(cfg)
	if err != nil {
		b.Fatalf("%v", err)
	}
	if _, err := sim.Run(proto, opts); err != nil {
		b.Fatalf("%v", err)
	}
	return sim, proto
}

// BenchmarkFaultCleanPath measures the clean medium with fault plumbing
// compiled in: the nil-plan check is the only overhead versus the pre-fault
// round loop.
func BenchmarkFaultCleanPath(b *testing.B) {
	opts := Options{}
	sim, proto := benchSim(b, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(proto, opts); err != nil {
			b.Fatalf("%v", err)
		}
	}
}

// BenchmarkFaultDropNoise measures a live plan exercising the per-delivery
// drop draw and the per-node noise draw every round.
func BenchmarkFaultDropNoise(b *testing.B) {
	opts := Options{Fault: &FaultPlan{Seed: 11, Drop: 0.1, Noise: 0.05}}
	sim, proto := benchSim(b, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(proto, opts); err != nil {
			b.Fatalf("%v", err)
		}
	}
}

// BenchmarkFaultOutages measures a plan that is outage-only: the depth
// bookkeeping plus the per-node down checks, with no probability draws.
func BenchmarkFaultOutages(b *testing.B) {
	opts := Options{Fault: &FaultPlan{Seed: 11, Outages: []Outage{
		{Node: 1, From: 0, To: 4},
		{Node: 9, From: 2, To: 6},
	}}}
	sim, proto := benchSim(b, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(proto, opts); err != nil {
			b.Fatalf("%v", err)
		}
	}
}
