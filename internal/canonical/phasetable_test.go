package canonical

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/drip"
	"anonradio/internal/history"
	"anonradio/internal/radio"
)

// tableDRIP builds the canonical DRIP of a feasible random configuration and
// its canonical execution, or returns nil when the draw is infeasible.
func tableDRIP(t testingT, seed int64, n, span int) (*DRIP, *radio.Result, *config.Config) {
	rng := rand.New(rand.NewSource(seed))
	cfg := config.Random(n, 0.35, config.UniformRandomTags{Span: span}, rng)
	rep, err := core.Classify(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !rep.Feasible() {
		return nil, nil, nil
	}
	d, err := New(rep)
	if err != nil {
		t.Fatalf("%v", err)
	}
	res, err := radio.Sequential{}.Run(rep.Config, d, radio.Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	return d, res, rep.Config
}

type testingT interface {
	Fatalf(format string, args ...any)
}

// TestPropertyPhaseTableMatchesReference checks that the compiled Act is
// observationally identical to the reference matching procedure on every
// prefix of every node's canonical history, across randomized feasible
// configurations — including out-of-distribution prefixes from other
// configurations, where both must agree on the no-match behaviour.
func TestPropertyPhaseTableMatchesReference(t *testing.T) {
	f := func(seed int64, sz, span uint8) bool {
		n := int(sz%10) + 2
		d, res, _ := tableDRIP(t, seed, n, int(span%4)+1)
		if d == nil {
			return true
		}
		for v := 0; v < len(res.Histories); v++ {
			h := res.Histories[v]
			// From the empty history up: the protocol contract guarantees
			// H[0], but the implementations must agree even below it.
			for i := 0; i <= len(h); i++ {
				if d.Act(h[:i]) != d.ActReference(h[:i]) {
					return false
				}
			}
		}
		// A foreign history (from a different configuration's protocol) must
		// fail matching identically in both implementations.
		other, otherRes, _ := tableDRIP(t, seed+1000, n, int(span%4)+1)
		if other != nil && other != d {
			h := otherRes.Histories[0]
			for i := 1; i <= len(h); i++ {
				if d.Act(h[:i]) != d.ActReference(h[:i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatalf("phase table diverged from the reference matcher: %v", err)
	}
}

// TestPropertyListenUntilSkipsOnlyListens checks the contract the radio
// simulator relies on to skip consults: for every local round i >= 1, every
// history whose length lies in [i, ListenUntil(i)) makes both the compiled
// Act and the reference matcher listen — random histories, since the
// contract holds whatever the history, and the canonical execution's own.
func TestPropertyListenUntilSkipsOnlyListens(t *testing.T) {
	entries := []history.Entry{history.Silent(), history.Received(Message), history.Collision(), history.Received("x")}
	f := func(seed int64, sz, span uint8) bool {
		n := int(sz%10) + 2
		d, res, _ := tableDRIP(t, seed, n, int(span%4)+1)
		if d == nil {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		listens := func(h history.Vector) bool {
			return d.Act(h).Kind == drip.Listen && d.ActReference(h).Kind == drip.Listen
		}
		for i := 1; i <= d.TerminationRound()+1; i++ {
			r := d.ListenUntil(i)
			if r < i {
				return false
			}
			for l := i; l < r; l++ {
				h := make(history.Vector, l)
				for k := range h {
					h[k] = entries[rng.Intn(len(entries))]
				}
				if !listens(h) {
					return false
				}
				for _, ch := range res.Histories {
					if len(ch) >= l && !listens(ch[:l]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatalf("ListenUntil skipped a round that may not listen: %v", err)
	}
}

// planScanListenUntil is the reference answer to DRIP.ListenUntil: it walks
// the compiled round plans from local round i to the first transmit slot
// (Block > 0) or terminate round (Block < 0, and every round past the
// plans).
func planScanListenUntil(pt *PhaseTable, i int) int {
	for i = max(i, 1); i <= len(pt.Plans); i++ {
		if pt.Plans[i-1].Block != 0 {
			return i
		}
	}
	return i
}

// checkListenUntil compares ListenUntil with the plan scan over the
// protocol's own table for every local round 0..TerminationRound()+2, on d
// and on its rebuild from a compiled artifact's blueprint (FromLists).
func checkListenUntil(t *testing.T, name string, d *DRIP) {
	t.Helper()
	loaded, err := FromLists(d.Sigma, d.Lists)
	if err != nil {
		t.Fatalf("%s: FromLists: %v", name, err)
	}
	for _, p := range []*DRIP{d, loaded} {
		for i := 0; i <= p.TerminationRound()+2; i++ {
			if got, want := p.ListenUntil(i), planScanListenUntil(p.Table(), i); got != want {
				t.Fatalf("%s: ListenUntil(%d) = %d, plan scan %d", name, i, got, want)
			}
		}
	}
}

// TestPropertyListenUntilMatchesPlanScan pins the phase arithmetic of
// DRIP.ListenUntil against the plan scan on random configurations, on
// staggered cliques (one class per node) and on G_m lines (many phases).
func TestPropertyListenUntilMatchesPlanScan(t *testing.T) {
	f := func(seed int64, sz, span uint8) bool {
		d, _, _ := tableDRIP(t, seed, int(sz%10)+2, int(span%4)+1)
		if d != nil {
			checkListenUntil(t, fmt.Sprintf("random seed %d", seed), d)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	build := func(cfg *config.Config) *DRIP {
		rep, err := core.Classify(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(rep)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for n := 2; n <= 96; n++ {
		checkListenUntil(t, fmt.Sprintf("clique %d", n), build(config.StaggeredClique(n)))
	}
	for m := 2; m <= 8; m++ {
		checkListenUntil(t, fmt.Sprintf("line G_%d", m), build(config.LineFamilyG(m)))
	}
}

// TestPhaseTableTransmissionBlockMatchesReference pins the compiled matching
// chain against the reference on the canonical execution.
func TestPhaseTableTransmissionBlockMatchesReference(t *testing.T) {
	d, res, _ := tableDRIP(t, 7, 8, 2)
	for seed := int64(8); d == nil; seed++ {
		d, res, _ = tableDRIP(t, seed, 8, 2)
	}
	for v := range res.Histories {
		for j := 1; j <= d.Phases(); j++ {
			want := d.TransmissionBlock(res.Histories[v], j)
			if got := d.Table().transmissionBlock(res.Histories[v].AppendCodes(nil, Message), j); got != want {
				t.Fatalf("node %d phase %d: table block %d, reference %d", v, j, got, want)
			}
		}
	}
}

// TestPhaseTableActAllocFree is the acceptance check of the compile step:
// once built, ActCodes performs zero heap allocations for any coded history
// prefix.
func TestPhaseTableActAllocFree(t *testing.T) {
	cfg := config.StaggeredClique(8)
	rep, err := core.Classify(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	d, err := New(rep)
	if err != nil {
		t.Fatalf("%v", err)
	}
	res, err := radio.Sequential{}.Run(rep.Config, d, radio.Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	h := res.Histories[0].AppendCodes(nil, Message)
	var proto radio.CodedProtocol = d // interface call, like the simulator makes
	for _, cut := range []int{1, len(h) / 3, 2 * len(h) / 3, len(h)} {
		prefix := h[:cut]
		if allocs := testing.AllocsPerRun(100, func() { proto.ActCodes(prefix) }); allocs != 0 {
			t.Fatalf("ActCodes on prefix %d/%d allocates %.1f times, want 0", cut, len(h), allocs)
		}
	}
}

// TestPhaseTableJSONRoundTrip checks that a table survives the JSON an
// earlier release's artifacts embed it in and still compares equal.
func TestPhaseTableJSONRoundTrip(t *testing.T) {
	cfg := config.SpanFamilyH(3)
	rep, err := core.Classify(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	d, err := New(rep)
	if err != nil {
		t.Fatalf("%v", err)
	}
	data, err := json.Marshal(d.Table())
	if err != nil {
		t.Fatalf("%v", err)
	}
	var back PhaseTable
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("%v", err)
	}
	if !back.Equal(d.Table()) {
		t.Fatalf("round-tripped table differs from the original")
	}
	// Equality is discriminating: a mutated plan must not compare equal.
	back.Plans[0].Phase++
	if back.Equal(d.Table()) {
		t.Fatalf("Equal ignored a plan mutation")
	}
}

// compiledTable classifies cfg and returns its canonical DRIP's table.
func compiledTable(t *testing.T, cfg *config.Config) *PhaseTable {
	t.Helper()
	rep, err := core.Classify(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(rep)
	if err != nil {
		t.Fatal(err)
	}
	return d.Table()
}

// jsonCopy returns pt after a trip through the JSON an earlier release's
// artifacts embed a table in.
func jsonCopy(t *testing.T, pt *PhaseTable) *PhaseTable {
	t.Helper()
	data, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	var back PhaseTable
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	return &back
}

// TestPhaseTableDigest pins table identity. Tables carry no digest any
// more, so Equal is the one table comparison: it is deterministic, accepts
// a faithful copy, tells two protocols' tables apart, handles nil, and
// sees a change to a plan or to an expectation row.
func TestPhaseTableDigest(t *testing.T) {
	pt := compiledTable(t, config.StaggeredClique(6))
	if !pt.Equal(pt) || !jsonCopy(t, pt).Equal(pt) {
		t.Fatalf("a table does not compare equal to itself or its copy")
	}
	if other := compiledTable(t, config.StaggeredPath(5, 2)); other.Equal(pt) || pt.Equal(other) {
		t.Fatalf("two protocols' tables compare equal")
	}
	if pt.Equal(nil) || (*PhaseTable)(nil).Equal(pt) || !(*PhaseTable)(nil).Equal(nil) {
		t.Fatalf("Equal mishandles a nil table")
	}
	mutated := jsonCopy(t, pt)
	mutated.Plans[0].Block++
	if mutated.Equal(pt) || pt.Equal(mutated) {
		t.Fatalf("plan mutation not seen")
	}
	// The line family needs several refinement iterations, so its table has
	// non-trivial matching rows.
	lt := compiledTable(t, config.LineFamilyG(2))
	mutated = jsonCopy(t, lt)
	found := false
	for i := range mutated.Matches {
		if len(mutated.Matches[i].Rows) > 0 && len(mutated.Matches[i].Rows[0].Expect) > 0 {
			mutated.Matches[i].Rows[0].Expect[0] ^= 1
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("line-family table has no match rows")
	}
	if mutated.Equal(lt) || lt.Equal(mutated) {
		t.Fatalf("expectation mutation not seen")
	}
}

// TestPhaseTableValidateRejectsCorruption pins the check a load applies to
// the table an earlier release embedded in an artifact: Equal with the
// table compiled from the artifact's lists accepts a faithful copy
// (through JSON, as those artifacts carry it) and rejects every
// single-field corruption of what the execution consults.
func TestPhaseTableValidateRejectsCorruption(t *testing.T) {
	// The line family needs several refinement phases, so the table has
	// non-empty matching rows to corrupt.
	pt := compiledTable(t, config.LineFamilyG(3))
	if len(pt.Matches) == 0 || len(pt.Matches[0].Rows) < 2 {
		t.Fatalf("test configuration compiled without matching rows")
	}
	if !jsonCopy(t, pt).Equal(pt) {
		t.Fatalf("a faithful copy does not compare equal")
	}
	for name, corrupt := range map[string]func(*PhaseTable){
		"negative span":          func(c *PhaseTable) { c.Sigma = -1 },
		"plan phase":             func(c *PhaseTable) { c.Plans[0].Phase = 99 },
		"invalid plan block":     func(c *PhaseTable) { c.Plans[0].Block = -2 },
		"plan block":             func(c *PhaseTable) { c.Plans[0].Block++ },
		"plan dropped":           func(c *PhaseTable) { c.Plans = c.Plans[:len(c.Plans)-1] },
		"match start":            func(c *PhaseTable) { c.Matches[0].Start = -1 },
		"row old class":          func(c *PhaseTable) { c.Matches[0].Rows[0].OldClass++ },
		"row dropped":            func(c *PhaseTable) { c.Matches[0].Rows = c.Matches[0].Rows[1:] },
		"invalid expectation":    func(c *PhaseTable) { c.Matches[0].Rows[0].Expect[0] = 7 },
		"expectation flipped":    func(c *PhaseTable) { c.Matches[0].Rows[0].Expect[0] ^= 1 },
		"expectation shortened":  func(c *PhaseTable) { c.Matches[0].Rows[0].Expect = c.Matches[0].Rows[0].Expect[1:] },
		"phase boundary dropped": func(c *PhaseTable) { c.Matches = c.Matches[:len(c.Matches)-1] },
	} {
		c := jsonCopy(t, pt)
		corrupt(c)
		if c.Equal(pt) || pt.Equal(c) {
			t.Fatalf("%s: the corrupted table compares equal", name)
		}
	}
}

// historyVectorForBench builds a mid-execution prefix used by the package
// benchmarks; kept here so the bench and tests share one construction.
func midExecutionPrefix(t testingT) (*DRIP, history.Vector) {
	cfg := config.StaggeredClique(10)
	rep, err := core.Classify(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	d, err := New(rep)
	if err != nil {
		t.Fatalf("%v", err)
	}
	res, err := radio.Sequential{}.Run(rep.Config, d, radio.Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	h := res.Histories[0]
	return d, h[:len(h)*2/3]
}

// BenchmarkPhaseTableAct times the compiled protocol as the simulator
// calls it: ActCodes through radio.CodedProtocol on the coded prefix.
func BenchmarkPhaseTableAct(b *testing.B) {
	d, h := midExecutionPrefix(b)
	var proto radio.CodedProtocol = d
	codes := h.AppendCodes(nil, Message)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proto.ActCodes(codes)
	}
}

func BenchmarkReferenceAct(b *testing.B) {
	d, h := midExecutionPrefix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ActReference(h)
	}
}
