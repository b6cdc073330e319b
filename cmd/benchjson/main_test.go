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
