package radio

import (
	"bytes"
	"testing"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/core"
)

// Tests of the code matrix that coded runs record into: one row per node,
// cleared when the run starts, grown by doubling up to the round limit and
// kept at that length until Reset.

// longSpanCase builds the canonical DRIP of the line G_10: its 41 nodes
// need ten phases, so its runs last 313 rounds, several times rowStart.
func longSpanCase(t *testing.T) canonicalCase {
	t.Helper()
	rep, err := core.Classify(config.LineFamilyG(10))
	if err != nil {
		t.Fatal(err)
	}
	d, err := canonical.New(rep)
	if err != nil {
		t.Fatal(err)
	}
	return canonicalCase{name: "G_10", cfg: rep.Config, proto: d}
}

// TestCodesRowsAreCapped pins that a result's rows are capped at their
// length: appending to one node's codes must not write into the next row.
func TestCodesRowsAreCapped(t *testing.T) {
	c := canonicalCases(t)[0]
	for _, sim := range simulators(t, c.cfg) {
		res, err := sim.RunCodes(c.proto, Options{MaxRounds: 1000})
		if err != nil {
			t.Fatal(err)
		}
		for v, codes := range res.Codes {
			if cap(codes) != len(codes) {
				t.Fatalf("%s: node %d codes have length %d, capacity %d", sim.ExecutorName(), v, len(codes), cap(codes))
			}
		}
		next := bytes.Clone(res.Codes[1])
		res.Codes[0] = append(res.Codes[0], 2, 2, 2, 2)
		if !bytes.Equal(res.Codes[1], next) {
			t.Fatalf("%s: appending to node 0's codes changed node 1's to %v, was %v", sim.ExecutorName(), res.Codes[1], next)
		}
		sim.Close()
	}
}

// TestDefaultLimitGrowsRows runs a long-span configuration under the
// default round limit, clean and faulted, on both executors: the rows start
// at rowStart and must double mid-run, the first time into a new matrix and
// after a Reset inside the one the first run left, without allocating; a
// run without Reset keeps the grown rows. Every run must match the oracle
// bit for bit.
func TestDefaultLimitGrowsRows(t *testing.T) {
	c := longSpanCase(t)
	for _, plan := range []*FaultPlan{nil, randomFaultPlan(0x5eed, c.cfg.N())} {
		opts := Options{Fault: plan}
		want, err := GoroutinePerNode{}.Run(c.cfg, c.proto, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want.GlobalRounds <= 4*rowStart {
			t.Fatalf("the long-span run lasts %d rounds, too few to grow rows of %d twice", want.GlobalRounds, rowStart)
		}
		for _, sim := range simulators(t, c.cfg) {
			name := sim.ExecutorName()
			if plan != nil {
				name += " faulted"
			}
			for run := 0; run < 3; run++ {
				if run == 2 {
					if err := sim.Reset(c.cfg); err != nil {
						t.Fatal(err)
					}
					if sim.stride != 0 {
						t.Fatalf("%s: Reset kept rows of %d entries", name, sim.stride)
					}
				}
				got, err := sim.RunCodes(c.proto, opts)
				if err != nil {
					t.Fatalf("%s run %d: %v", name, run, err)
				}
				if sim.stride < want.GlobalRounds || sim.stride >= 2*want.GlobalRounds {
					t.Fatalf("%s run %d: rows of %d entries after %d rounds", name, run, sim.stride, want.GlobalRounds)
				}
				sameCodedOutcome(t, name, got, want)
			}
			grow := func() {
				sim.Reset(c.cfg)
				sim.RunCodes(c.proto, opts)
			}
			if allocs := testing.AllocsPerRun(3, grow); allocs != 0 {
				t.Fatalf("%s: a warm run that grows its rows allocates %.1f times, want 0", name, allocs)
			}
			sim.Close()
		}
	}
}

// TestResetSizesRowsFromNewLimit runs a long-span configuration and then,
// after Reset, a small one, each under its own round bound: the long run
// must grow its rows up to its limit, the small run must keep its rows
// within its own limit and clear only them, not the matrix the long run
// left behind, and both must match the oracle.
func TestResetSizesRowsFromNewLimit(t *testing.T) {
	long, small := longSpanCase(t), canonicalCases(t)[0]
	for _, sim := range simulators(t, long.cfg) {
		for _, c := range []canonicalCase{long, small} {
			if err := sim.Reset(c.cfg); err != nil {
				t.Fatal(err)
			}
			full, err := GoroutinePerNode{}.Run(c.cfg, c.proto, Options{})
			if err != nil {
				t.Fatal(err)
			}
			limit := full.GlobalRounds + 1
			opts := Options{MaxRounds: limit}
			got, err := sim.RunCodes(c.proto, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, sim.ExecutorName(), err)
			}
			want := min(limit, rowStart)
			if c.name == long.name {
				want = limit
			}
			if n := c.cfg.N(); sim.stride != want || len(sim.codes) != n*want {
				t.Fatalf("%s %s: rows of %d entries over %d bytes, want %d-entry rows for %d nodes", c.name, sim.ExecutorName(), sim.stride, len(sim.codes), want, n)
			}
			sameCodedOutcome(t, c.name, got, full)
		}
		if cap(sim.codes) <= len(sim.codes) {
			t.Fatalf("%s: the small run's matrix holds the whole long-span capacity", sim.ExecutorName())
		}
		sim.Close()
	}
}

// TestTracedCodesMatchUntraced pins that recording a trace changes no code:
// a traced coded run records the same codes as an untraced one, clean and
// faulted, on both executors.
func TestTracedCodesMatchUntraced(t *testing.T) {
	cases := append(canonicalCases(t), longSpanCase(t))
	for i, c := range cases {
		for _, plan := range []*FaultPlan{nil, randomFaultPlan(uint64(i)+99, c.cfg.N())} {
			for _, sim := range simulators(t, c.cfg) {
				plain, err := sim.RunCodes(c.proto, Options{Fault: plan})
				if err != nil {
					t.Fatal(err)
				}
				want := make([][]byte, len(plain.Codes))
				for v, codes := range plain.Codes {
					want[v] = bytes.Clone(codes)
				}
				traced, err := sim.RunCodes(c.proto, Options{Fault: plan, RecordTrace: true})
				if err != nil {
					t.Fatal(err)
				}
				if traced.Trace == nil || len(traced.Codes) != len(want) {
					t.Fatalf("%s %s: traced run has %d rows, trace %v", c.name, sim.ExecutorName(), len(traced.Codes), traced.Trace != nil)
				}
				for v, codes := range traced.Codes {
					if !bytes.Equal(codes, want[v]) {
						t.Fatalf("%s %s faulted=%v: node %d traced codes %v, untraced %v", c.name, sim.ExecutorName(), plan != nil, v, codes, want[v])
					}
				}
				sim.Close()
			}
		}
	}
}
