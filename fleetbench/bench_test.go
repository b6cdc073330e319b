package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// fingerprint hashes everything a run sends: configuration texts, request
// bodies, the writer's sequence and the clients' request sequences.
func fingerprint(t *testing.T, workload string, seed uint64) [32]byte {
	t.Helper()
	in, err := generate(workload, seed, 1, &oracle{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	ints := func(xs ...int) {
		for _, x := range xs {
			_ = binary.Write(h, binary.LittleEndian, int64(x))
		}
	}
	for _, group := range [][]item{in.stable, in.churn, in.pool} {
		for _, it := range group {
			h.Write([]byte(it.key))
			h.Write([]byte(it.spec.text()))
		}
	}
	for _, s := range in.infeasible {
		h.Write([]byte(s.text()))
	}
	b := in.encodeBodies()
	for _, group := range [][][]byte{b.electJSON, b.electBin, b.batchJSON, b.batchBin, b.cfgJSON} {
		for _, body := range group {
			h.Write(body)
		}
	}
	for _, seq := range in.ops {
		for _, o := range seq {
			ints(o.key, o.cfg)
			if o.evict {
				ints(1)
			}
		}
	}
	for _, seq := range in.seqs {
		ints(seq...)
	}
	for _, batch := range in.batches {
		ints(batch...)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := fingerprint(t, w, 7), fingerprint(t, w, 7), fingerprint(t, w, 8)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w)
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		samples []int64
		p, want float64
	}{
		{[]int64{1, 2, 3, 4, 5}, 0, 1},
		{[]int64{1, 2, 3, 4, 5}, 25, 2},
		{[]int64{1, 2, 3, 4, 5}, 50, 3},
		{[]int64{1, 2, 3, 4, 5}, 100, 5},
		{[]int64{10, 20}, 50, 15},
		{[]int64{10, 20}, 90, 19},
		{[]int64{7}, 90, 7},
		{nil, 50, 0},
	} {
		if got := percentile(tc.samples, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.samples, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestPerCPU(t *testing.T) {
	if got := perCPU(100, 2*time.Second); got != 50 {
		t.Errorf("perCPU(100, 2s) = %g, want 50", got)
	}
	if got := perCPU(100, 0); got != 0 {
		t.Errorf("perCPU with no CPU time = %g, want 0", got)
	}
	// CPU time only grows.
	a := cpuTime()
	for x := 0; x < 1e7; x++ {
		_ = math.Sqrt(float64(x))
	}
	if b := cpuTime(); b < a {
		t.Errorf("cpuTime went backwards: %v then %v", a, b)
	}
}

func TestWindows(t *testing.T) {
	s := newSeries(time.Time{}, 0)
	// Two full seconds of 300 samples each, then a short tail.
	for sec := int64(0); sec < 2; sec++ {
		for i := int64(0); i < 300; i++ {
			s.at = append(s.at, sec*int64(time.Second)+i)
			s.ns = append(s.ns, (sec+1)*1000)
		}
	}
	s.at = append(s.at, 2*int64(time.Second)+1)
	s.ns = append(s.ns, 1e9)
	ticks := []tick{{at: 0}, {at: int64(time.Second), cpu: 500 * time.Millisecond}, {at: 2 * int64(time.Second), cpu: 1500 * time.Millisecond}, {at: 3 * int64(time.Second), cpu: 2 * time.Second}}
	ws := cut(s, ticks, 200, 1)
	if len(ws) != 2 || ws[0].n != 300 || ws[1].n != 300 {
		t.Fatalf("cut: got %d windows, want 2 of 300 samples", len(ws))
	}
	// A phase too short for a full window still yields one.
	if short := cut(s, ticks[:2], 1000, 1); len(short) != 1 || short[0].n != len(s.ns) {
		t.Errorf("cut of a short phase: %d windows, want one holding every sample", len(short))
	}
	if lat := acrossWindows(ws, func(w windowStat) float64 { return w.lat.p50 }); lat != 1.5 {
		t.Errorf("p50 across windows = %g µs, want the median of 1 and 2 µs", lat)
	}
	// 300 samples in 0.5 CPU-seconds, then 300 in 1 CPU-second.
	if rate := acrossWindows(ws, func(w windowStat) float64 { return perCPU(int64(w.work), w.cpu) }); rate != 450 {
		t.Errorf("work per CPU-second across windows = %g, want the median of 600 and 300", rate)
	}
}

// smoke runs one short run in a temporary directory.
func smoke(t *testing.T, workload string, trace bool, wrong func(*expect)) *result {
	t.Helper()
	dir := t.TempDir()
	res, _, err := run(options{
		workload: workload, seed: 3, seconds: 1, trace: trace,
		work: dir + "/work", traceDir: dir + "/traces",
		quick: true, wrong: wrong,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWrongExpectationIsCounted(t *testing.T) {
	corrupted := false
	res := smoke(t, serveSmall, false, func(e *expect) {
		if e.feasible && !corrupted {
			corrupted = true
			e.leader++
		}
	})
	if res.Failed == 0 || res.Correct {
		t.Fatalf("a wrong expectation went unnoticed: attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
	}
}

// TestSmokeEveryMetric runs every workload briefly, untraced and traced,
// and checks that each reports every metric BENCHMARK.json names, with its
// unit, and that every answer agreed with the oracle.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet six times")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res := smoke(t, w.Name, trace, nil)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.Name, trace, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %g", w.Name, trace, m.Name, got.Value)
				}
			}
		}
	}
}
