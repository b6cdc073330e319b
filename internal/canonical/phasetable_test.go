package canonical

import (
	"encoding/json"
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
				if d.Table().Act(h[:i]) != d.ActReference(h[:i]) {
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
				if d.Table().Act(h[:i]) != d.ActReference(h[:i]) {
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
			return d.Table().Act(h).Kind == drip.Listen && d.ActReference(h).Kind == drip.Listen
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
			if got := d.Table().TransmissionBlock(res.Histories[v], j); got != want {
				t.Fatalf("node %d phase %d: table block %d, reference %d", v, j, got, want)
			}
		}
	}
}

// TestPhaseTableActAllocFree is the acceptance check of the compile step:
// once built, Act performs zero heap allocations for any history prefix.
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
	h := res.Histories[0]
	var proto drip.Protocol = d // interface call, like the simulator makes
	for _, cut := range []int{1, len(h) / 3, 2 * len(h) / 3, len(h)} {
		prefix := h[:cut]
		if allocs := testing.AllocsPerRun(100, func() { proto.Act(prefix) }); allocs != 0 {
			t.Fatalf("Act on prefix %d/%d allocates %.1f times, want 0", cut, len(h), allocs)
		}
	}
}

// TestPhaseTableJSONRoundTrip checks that an embedded table survives
// serialization and still validates and compares equal.
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
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped table invalid: %v", err)
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

// TestPhaseTableValidateRejectsCorruption covers the artifact-validation
// error paths.
func TestPhaseTableValidateRejectsCorruption(t *testing.T) {
	// The line family needs several refinement phases, so the table has
	// non-empty matching rows to corrupt.
	cfg := config.LineFamilyG(3)
	rep, err := core.Classify(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	d, err := New(rep)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(d.Table().Matches) == 0 || len(d.Table().Matches[0].Rows) == 0 {
		t.Fatalf("test configuration compiled without matching rows")
	}
	fresh := func() *PhaseTable {
		data, _ := json.Marshal(d.Table())
		var pt PhaseTable
		_ = json.Unmarshal(data, &pt)
		return &pt
	}
	cases := []func(*PhaseTable){
		func(pt *PhaseTable) { pt.Sigma = -1 },
		func(pt *PhaseTable) { pt.Plans[0].Phase = 99 },
		func(pt *PhaseTable) { pt.Plans[0].Block = -2 },
		func(pt *PhaseTable) { pt.Matches[0].Start = -1 },
		func(pt *PhaseTable) { pt.Matches[0].Rows[0].Expect[0] = 7 },
	}
	for i, corrupt := range cases {
		pt := fresh()
		if err := pt.Validate(); err != nil {
			t.Fatalf("case %d: pristine table invalid: %v", i, err)
		}
		corrupt(pt)
		if err := pt.Validate(); err == nil {
			t.Fatalf("case %d: corruption not detected", i)
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

func BenchmarkPhaseTableAct(b *testing.B) {
	d, h := midExecutionPrefix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Act(h)
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
