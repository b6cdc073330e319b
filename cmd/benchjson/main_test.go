package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestConvertKeepsZeroAllocationFigures converts a 0 allocs/op line, a
// nonzero one and one run without -benchmem: the memory figures must be
// written whenever the line carries them, zeros included, and left out
// only when it does not.
func TestConvertKeepsZeroAllocationFigures(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"pkg: anonradio",
		"cpu: Test CPU @ 2.00GHz",
		"BenchmarkElectionSteadyState/n=16-2   \t   73605\t     15041 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkE8ParallelEngine/n=64-8  182  653959 ns/op  1070697 B/op  612 allocs/op",
		"BenchmarkMicroHistoryKey-2   1000000   1043 ns/op",
		"PASS",
		"ok  \tanonradio\t1.234s",
	}, "\n")
	var out strings.Builder
	if err := convert(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatalf("%v in %s", err, out.String())
	}
	want := []map[string]any{
		{"name": "BenchmarkElectionSteadyState/n=16-2", "package": "anonradio", "cpu": "Test CPU @ 2.00GHz",
			"iterations": 73605.0, "ns_per_op": 15041.0, "bytes_per_op": 0.0, "allocs_per_op": 0.0, "has_mem_stats": true},
		{"name": "BenchmarkE8ParallelEngine/n=64-8", "package": "anonradio", "cpu": "Test CPU @ 2.00GHz",
			"iterations": 182.0, "ns_per_op": 653959.0, "bytes_per_op": 1070697.0, "allocs_per_op": 612.0, "has_mem_stats": true},
		{"name": "BenchmarkMicroHistoryKey-2", "package": "anonradio", "cpu": "Test CPU @ 2.00GHz",
			"iterations": 1000000.0, "ns_per_op": 1043.0, "has_mem_stats": false},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("converted\n%s\nwant %v", out.String(), want)
	}
}

// compareFixture is a baseline as the conversion writes it: a gated
// benchmark, one whose allocation count is left out (compared on time
// only), and one the run under test lacks.
const compareFixture = `[
  {"name": "BenchmarkElectionSteadyState/n=16-2", "package": "anonradio", "iterations": 100, "ns_per_op": 15000, "bytes_per_op": 0, "allocs_per_op": 0, "has_mem_stats": true},
  {"name": "BenchmarkServiceElect-2", "package": "anonradio/internal/service", "iterations": 100, "ns_per_op": 8000, "has_mem_stats": false},
  {"name": "BenchmarkGone-2", "package": "anonradio", "iterations": 100, "ns_per_op": 10, "bytes_per_op": 0, "allocs_per_op": 0, "has_mem_stats": true}
]`

// TestCompareGatesOnlyAllocations runs the compare on fixture text: a time
// regression and an ungated allocation increase pass with their deltas
// printed; one more alloc/op on a gated benchmark fails, naming it; a run
// sharing no benchmark with the baseline fails too.
func TestCompareGatesOnlyAllocations(t *testing.T) {
	var base []Result
	if err := json.Unmarshal([]byte(compareFixture), &base); err != nil {
		t.Fatal(err)
	}
	run := func(lines ...string) (string, error) {
		head, err := parse(strings.NewReader(strings.Join(lines, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err = compare(base, head, &out)
		return out.String(), err
	}
	out, err := run(
		"pkg: anonradio",
		"BenchmarkElectionSteadyState/n=16-2   100   30000 ns/op   0 B/op   0 allocs/op",
		"pkg: anonradio/internal/service",
		"BenchmarkServiceElect-2   100   4000 ns/op   16 B/op   3 allocs/op",
		"BenchmarkNew-2   100   10 ns/op   0 B/op   0 allocs/op",
	)
	if err != nil {
		t.Fatalf("time-only and ungated changes failed the compare: %v\n%s", err, out)
	}
	for _, want := range []string{
		"anonradio BenchmarkElectionSteadyState/n=16-2: 15000 -> 30000 ns/op (+100.0%), 0 -> 0 allocs/op\n",
		"anonradio/internal/service BenchmarkServiceElect-2: 8000 -> 4000 ns/op (-50.0%)\n",
		"anonradio BenchmarkGone-2: missing from this run\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BenchmarkNew") {
		t.Fatalf("a benchmark the baseline lacks was compared:\n%s", out)
	}
	if !strings.HasSuffix(out, "0 stale records (allocs/op below the record)\n") {
		t.Fatalf("compare output lacks the stale-record count:\n%s", out)
	}

	out, err = run(
		"pkg: anonradio",
		"BenchmarkElectionSteadyState/n=16-2   100   9000 ns/op   24 B/op   1 allocs/op",
	)
	if err == nil || !strings.Contains(err.Error(), "anonradio BenchmarkElectionSteadyState/n=16-2") || !strings.Contains(out, "0 -> 1 allocs/op REGRESSION") {
		t.Fatalf("an alloc regression passed: %v\n%s", err, out)
	}

	if _, err = run("pkg: other", "BenchmarkElectionSteadyState/n=16-2   100   9000 ns/op   0 B/op   0 allocs/op"); err == nil {
		t.Fatalf("a run matching no baseline benchmark passed")
	}
}

// TestCompareNamesStaleRecords runs the compare with two gated benchmarks
// that allocate less than their records and one that matches its record:
// both stale records are named, then counted, and the compare passes.
func TestCompareNamesStaleRecords(t *testing.T) {
	base := []Result{}
	if err := json.Unmarshal([]byte(`[
  {"name": "BenchmarkSnapshotRestore-2", "package": "anonradio/internal/service", "iterations": 10, "ns_per_op": 900000, "bytes_per_op": 0, "allocs_per_op": 782, "has_mem_stats": true},
  {"name": "BenchmarkServiceElect-2", "package": "anonradio/internal/service", "iterations": 100, "ns_per_op": 8000, "bytes_per_op": 0, "allocs_per_op": 0, "has_mem_stats": true},
  {"name": "BenchmarkWALReplay-2", "package": "anonradio/internal/wal", "iterations": 100, "ns_per_op": 8000, "bytes_per_op": 0, "allocs_per_op": 30, "has_mem_stats": true}
]`), &base); err != nil {
		t.Fatal(err)
	}
	head, err := parse(strings.NewReader(strings.Join([]string{
		"pkg: anonradio/internal/service",
		"BenchmarkSnapshotRestore-2   10   800000 ns/op   0 B/op   578 allocs/op",
		"BenchmarkServiceElect-2   100   8000 ns/op   0 B/op   0 allocs/op",
		"pkg: anonradio/internal/wal",
		"BenchmarkWALReplay-2   100   8000 ns/op   0 B/op   29 allocs/op",
	}, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := compare(base, head, &out); err != nil {
		t.Fatalf("stale records failed the compare: %v\n%s", err, out.String())
	}
	want := "stale record: anonradio/internal/service BenchmarkSnapshotRestore-2: record 782, this run 578 allocs/op\n" +
		"stale record: anonradio/internal/wal BenchmarkWALReplay-2: record 30, this run 29 allocs/op\n" +
		"2 stale records (allocs/op below the record)\n"
	if !strings.HasSuffix(out.String(), want) {
		t.Fatalf("compare output does not end with\n%s\ngot:\n%s", want, out.String())
	}
}
