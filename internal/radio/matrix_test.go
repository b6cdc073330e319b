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
// kept at that length for every later run, across Reset too.

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
	sim := newSimulator(t, c.cfg)
	res, err := sim.RunCodes(c.proto, Options{MaxRounds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for v, codes := range res.Codes {
		if cap(codes) != len(codes) {
			t.Fatalf("node %d codes have length %d, capacity %d", v, len(codes), cap(codes))
		}
	}
	next := bytes.Clone(res.Codes[1])
	res.Codes[0] = append(res.Codes[0], 2, 2, 2, 2)
	if !bytes.Equal(res.Codes[1], next) {
		t.Fatalf("appending to node 0's codes changed node 1's to %v, was %v", res.Codes[1], next)
	}
}

// TestDefaultLimitGrowsRows runs a long-span configuration under the
// default round limit, clean and faulted: the rows start at rowStart and
// must double mid-run into a new matrix; later runs, with or without a
// Reset in between, keep the grown rows. Rows that start short again inside
// that matrix must grow without allocating. Every run must match the oracle
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
		sim := newSimulator(t, c.cfg)
		name := "clean"
		if plan != nil {
			name = "faulted"
		}
		grown := 0
		for run := 0; run < 3; run++ {
			if run == 2 {
				if err := sim.Reset(c.cfg); err != nil {
					t.Fatal(err)
				}
				if sim.rows != grown {
					t.Fatalf("%s: Reset left rows of %d entries, the first run grew them to %d", name, sim.rows, grown)
				}
			}
			got, err := sim.RunCodes(c.proto, opts)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			if sim.stride < want.GlobalRounds || sim.stride >= 2*want.GlobalRounds {
				t.Fatalf("%s run %d: rows of %d entries after %d rounds", name, run, sim.stride, want.GlobalRounds)
			}
			if run == 0 {
				grown = sim.stride
			} else if sim.stride != grown {
				t.Fatalf("%s run %d: rows of %d entries, the first run grew them to %d", name, run, sim.stride, grown)
			}
			sameCodedOutcome(t, name, got, want)
		}
		grow := func() {
			sim.rows = 0 // rows never grown, in the matrix the runs left
			sim.RunCodes(c.proto, opts)
		}
		if allocs := testing.AllocsPerRun(3, grow); allocs != 0 {
			t.Fatalf("%s: a warm run that grows its rows allocates %.1f times, want 0", name, allocs)
		}
	}
}

// TestResetSizesRowsFromNewLimit runs a long-span configuration, then a
// small one and then the long one again, each after a Reset and under its
// own round bound: the long run must grow its rows up to its limit, the
// small run must cut the kept rows to its own limit and clear only them,
// not the matrix the long run left behind, the rows must keep the long
// run's length for the next long run, and every run must match the oracle.
func TestResetSizesRowsFromNewLimit(t *testing.T) {
	long, small := longSpanCase(t), canonicalCases(t)[0]
	sim := newSimulator(t, long.cfg)
	for i, c := range []canonicalCase{long, small, long} {
		if err := sim.Reset(c.cfg); err != nil {
			t.Fatal(err)
		}
		full, err := GoroutinePerNode{}.Run(c.cfg, c.proto, Options{})
		if err != nil {
			t.Fatal(err)
		}
		limit := full.GlobalRounds + 1
		if i == 2 && sim.rows < limit {
			t.Fatalf("rows of %d entries after the small run; the long run would regrow them to %d", sim.rows, limit)
		}
		opts := Options{MaxRounds: limit}
		got, err := sim.RunCodes(c.proto, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := c.cfg.N(); sim.stride != limit || len(sim.codes) != n*limit {
			t.Fatalf("%s: rows of %d entries over %d bytes, want %d-entry rows for %d nodes", c.name, sim.stride, len(sim.codes), limit, n)
		}
		if c.name == small.name && cap(sim.codes) <= len(sim.codes) {
			t.Fatalf("the small run's matrix holds the whole long-span capacity")
		}
		sameCodedOutcome(t, c.name, got, full)
	}
}

// TestTracedCodesMatchUntraced pins that recording a trace changes no code:
// a traced coded run records the same codes as an untraced one, clean and
// faulted.
func TestTracedCodesMatchUntraced(t *testing.T) {
	cases := append(canonicalCases(t), longSpanCase(t))
	for i, c := range cases {
		for _, plan := range []*FaultPlan{nil, randomFaultPlan(uint64(i)+99, c.cfg.N())} {
			sim := newSimulator(t, c.cfg)
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
				t.Fatalf("%s: traced run has %d rows, trace %v", c.name, len(traced.Codes), traced.Trace != nil)
			}
			for v, codes := range traced.Codes {
				if !bytes.Equal(codes, want[v]) {
					t.Fatalf("%s faulted=%v: node %d traced codes %v, untraced %v", c.name, plan != nil, v, codes, want[v])
				}
			}
		}
	}
}
