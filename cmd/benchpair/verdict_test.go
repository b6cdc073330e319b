package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

var (
	perCPU = Metric{Name: "elect_per_cpu_s", Unit: "1/s", Better: "higher", Bound: 0.25}
	cpuSec = Metric{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25}
)

func TestQuartilesInterpolate(t *testing.T) {
	q := quartiles([]float64{4, 1, 3, 2})
	if q.Q1 != 1.75 || q.Median != 2.5 || q.Q3 != 3.25 {
		t.Fatalf("quartiles of 1..4: %+v", q)
	}
	if q := quartiles([]float64{7}); q.Q1 != 7 || q.Median != 7 || q.Q3 != 7 {
		t.Fatalf("quartiles of one value: %+v", q)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	for _, c := range []struct {
		name           string
		m              Metric
		parent, change []float64
		want           Verdict
		won            int
	}{
		{
			// Ten pairs won and a median gap far above the parent's IQR.
			name:   "gain",
			m:      perCPU,
			parent: []float64{7130, 7200, 7300, 7346, 7400, 7500, 7651, 7250, 7350, 7420},
			change: []float64{10880, 11000, 11200, 11340, 11400, 11600, 12140, 11100, 11300, 11500},
			want:   Gain, won: 10,
		},
		{
			// Eight of ten pairs won: better, but not a gain by the rule.
			name:   "eight of ten",
			m:      perCPU,
			parent: []float64{100, 100, 100, 100, 100, 100, 100, 100, 130, 130},
			change: []float64{120, 120, 120, 120, 120, 120, 120, 120, 120, 120},
			want:   Within, won: 8,
		},
		{
			// Every pair won, but by less than the parent's IQR.
			name:   "inside the parent's spread",
			m:      perCPU,
			parent: []float64{90, 95, 100, 105, 110, 90, 95, 100, 105, 110},
			change: []float64{91, 96, 101, 106, 111, 91, 96, 101, 106, 111},
			want:   Within, won: 10,
		},
		{
			// A lower-is-better metric 30% worse.
			name:   "regression",
			m:      cpuSec,
			parent: []float64{0.100, 0.101, 0.099, 0.100, 0.102},
			change: []float64{0.130, 0.131, 0.129, 0.130, 0.132},
			want:   Regression, won: 0,
		},
		{
			// The parent's quartiles lie 40% apart: a 25% bound cannot be
			// told from the noise.
			name:   "unresolved",
			m:      perCPU,
			parent: []float64{60, 70, 100, 130, 140, 60, 70, 100, 130, 140},
			change: []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			want:   Unresolved, won: 4,
		},
		{
			// The same noisy parent, but every change run beats every
			// parent run: no spread makes that noise.
			name:   "noisy but apart",
			m:      perCPU,
			parent: []float64{60, 70, 100, 130, 140, 60, 70, 100, 130, 140},
			change: []float64{200, 210, 190, 205, 195, 200, 210, 190, 205, 195},
			want:   Gain, won: 10,
		},
		{
			// A noisy lower-is-better parent, every change run below every
			// parent run, by less than the parent's IQR: within bound.
			name:   "noisy lower apart",
			m:      cpuSec,
			parent: []float64{0.10, 0.12, 0.15, 0.18, 0.20, 0.10, 0.12, 0.15, 0.18, 0.20},
			change: []float64{0.09, 0.09, 0.09, 0.09, 0.09, 0.09, 0.09, 0.09, 0.09, 0.09},
			want:   Within, won: 10,
		},
		{
			// A lower-is-better gain: 10 of 10, gap above the IQR.
			name:   "lower gain",
			m:      cpuSec,
			parent: []float64{0.158, 0.143, 0.168, 0.150, 0.160, 0.155, 0.165, 0.149, 0.162, 0.157},
			change: []float64{0.075, 0.070, 0.080, 0.072, 0.078, 0.074, 0.079, 0.071, 0.077, 0.076},
			want:   Gain, won: 10,
		},
	} {
		s := Judge(c.m, c.parent, c.change)
		if s.Verdict != c.want || s.Won != c.won || s.Pairs != len(c.parent) {
			t.Fatalf("%s: verdict %q, won %d/%d; want %q, %d/%d", c.name, s.Verdict, s.Won, s.Pairs, c.want, c.won, len(c.parent))
		}
	}
}

// TestJudgeNineOfTenRoundsUp pins the pair count of the gain rule on other
// pair counts: nine in ten means all six of six.
func TestJudgeNineOfTenRoundsUp(t *testing.T) {
	parent := []float64{100, 100, 100, 100, 100, 100}
	change := []float64{120, 120, 120, 120, 120, 90}
	if s := Judge(perCPU, parent, change); s.Verdict != Within || s.Won != 5 {
		t.Fatalf("5 of 6 pairs: %q, won %d", s.Verdict, s.Won)
	}
	change[5] = 120
	if s := Judge(perCPU, parent, change); s.Verdict != Gain {
		t.Fatalf("6 of 6 pairs: %q", s.Verdict)
	}
}

func TestJudgeZeroMedian(t *testing.T) {
	s := Judge(cpuSec, []float64{0, 0, 0}, []float64{0, 0, 0})
	if s.Verdict != Within || !math.IsNaN(s.Ratio) {
		t.Fatalf("all-zero metric: %q, ratio %v", s.Verdict, s.Ratio)
	}
}

// TestReportPairsBySeed feeds report a log with one workload's pairs out of
// order, one unpaired run and a failed operation: the table pairs runs by
// seed, judges them, and the failure fails the report.
func TestReportPairsBySeed(t *testing.T) {
	run := func(seed int, side string, v float64, failed int64) record {
		r := record{Workload: "serve-large", Seed: seed, Side: side}
		r.Result.Correct = failed == 0
		r.Result.Attempted = 100
		r.Result.Failed = failed
		r.Result.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"elect_per_cpu_s": {Value: v}}
		return r
	}
	recs := []record{
		run(2, "change", 150, 0), run(1, "parent", 100, 0), run(2, "parent", 101, 0),
		run(1, "change", 149, 0), run(3, "parent", 99, 0),
	}
	var out bytes.Buffer
	if !report(&out, []Metric{perCPU}, recs) {
		t.Fatalf("clean pairs failed the report:\n%s", out.String())
	}
	for _, want := range []string{"serve-large: 2 pairs, seeds [1 2]", "| `elect_per_cpu_s` | 100 (100–101) | 150 (149–150) | 1.49 | 2/2 | gain |", "change: failed 0 of 200"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if report(&out, []Metric{perCPU}, append(recs, run(3, "change", 150, 1))) {
		t.Fatalf("a failed operation passed the report:\n%s", out.String())
	}
}

// TestReportCountsRepeatedSeeds pins that a log holding a seed run twice
// (a second invocation appending to the same log) is judged on every pair:
// the first, lost pair of seed 1 still counts, so 2 of 3 pairs won is no
// gain.
func TestReportCountsRepeatedSeeds(t *testing.T) {
	run := func(seed int, side string, v float64) record {
		r := record{Workload: "serve-large", Seed: seed, Side: side}
		r.Result.Correct = true
		r.Result.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"elect_per_cpu_s": {Value: v}}
		return r
	}
	recs := []record{
		run(1, "parent", 150), run(1, "change", 100),
		run(2, "change", 160), run(2, "parent", 100),
		run(1, "parent", 100), run(1, "change", 160),
	}
	parent, change := pairUp(recs)
	if len(parent) != 3 || len(change) != 3 {
		t.Fatalf("%d parent and %d change runs paired, want 3 pairs", len(parent), len(change))
	}
	for i, want := range [][2]float64{{150, 100}, {100, 160}, {100, 160}} {
		p, c := parent[i].Result.Metrics["elect_per_cpu_s"].Value, change[i].Result.Metrics["elect_per_cpu_s"].Value
		if parent[i].Seed != change[i].Seed || p != want[0] || c != want[1] {
			t.Fatalf("pair %d: seeds %d/%d values %v/%v, want %v", i, parent[i].Seed, change[i].Seed, p, c, want)
		}
	}
	var out bytes.Buffer
	report(&out, []Metric{perCPU}, recs)
	if want := "serve-large: 3 pairs, seeds [1 1 2]"; !strings.Contains(out.String(), want) {
		t.Fatalf("report lacks %q:\n%s", want, out.String())
	}
	if strings.Contains(out.String(), "| gain |") || !strings.Contains(out.String(), "| 2/3 |") {
		t.Fatalf("a lost repeated pair was dropped:\n%s", out.String())
	}
}

func TestParseResultReadsLastLine(t *testing.T) {
	out := []byte("{\"run_record\":{}}\n{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.2,\"unit\":\"s\"}}}\n")
	res, err := parseResult(out)
	if err != nil || !res.Correct || res.Attempted != 5 || res.Metrics["setup_s"].Value != 0.2 {
		t.Fatalf("parsed %+v, %v", res, err)
	}
	if _, err := parseResult([]byte("{\"run_record\":{}}\n")); err == nil {
		t.Fatalf("a line without metrics parsed")
	}
}
