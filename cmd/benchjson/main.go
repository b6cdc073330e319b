// Command benchjson converts the text output of `go test -bench` into a JSON
// array, one object per benchmark result line. CI pipes the engine and
// election benchmarks through it to publish a BENCH_engines.json artifact,
// so the performance trajectory of the simulation core is tracked per
// commit.
//
// Usage:
//
//	go test -run xxx -bench 'E8|Election' -benchtime 1x -benchmem . | benchjson > BENCH_engines.json
//	go test -run xxx -bench 'E8|Election' -benchtime 1x -benchmem . | benchjson -compare BENCH_engines.json
//
// Lines that are not benchmark results (headers, PASS/ok trailers) are
// skipped; context lines (goos, goarch, cpu, pkg) are captured into every
// record.
//
// With -compare, benchjson checks the results against a baseline written by
// an earlier conversion instead of printing JSON. A benchmark that appears
// in both (same package and name) fails the comparison when it allocates
// more per op than the baseline records; its ns/op delta is printed but
// never gated, since time is noisy and allocation counts are not. Baseline
// records without allocs_per_op are compared on time only. A benchmark that
// allocates less than its record is listed as a stale record, with their
// count, and does not fail the comparison.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. BytesPerOp and AllocsPerOp are set
// exactly when the line carries them (-benchmem), so a 0 allocs/op figure
// is written as 0 rather than dropped.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	CPU         string  `json:"cpu,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	HasMem      bool    `json:"has_mem_stats"`
}

func main() {
	base := flag.String("compare", "", "compare the results against this baseline JSON instead of printing JSON; fail on any allocs/op increase")
	flag.Parse()
	var err error
	if *base != "" {
		err = compareFile(*base, os.Stdin, os.Stdout)
	} else {
		err = convert(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// convert reads `go test -bench` output from in and writes the JSON array
// of its results to out.
func convert(in io.Reader, out io.Writer) error {
	results, err := parse(in)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// parse reads the benchmark results of `go test -bench` output.
func parse(in io.Reader) ([]Result, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var (
		results []Result
		pkg     string
		cpu     string
	)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		r, ok := parseLine(line)
		if !ok {
			continue
		}
		r.Package = pkg
		r.CPU = cpu
		results = append(results, r)
	}
	return results, sc.Err()
}

// parseLine parses one benchmark result, e.g.
//
//	BenchmarkE8ParallelEngine/n=64-8  182  653959 ns/op  1070697 B/op  612 allocs/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !hasUnit(fields, "ns/op") {
		return Result{}, false
	}
	var r Result
	r.Name = fields[0]
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		value, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return Result{}, false
			}
			r.NsPerOp = v
		case "B/op":
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return Result{}, false
			}
			r.BytesPerOp = &v
			r.HasMem = true
		case "allocs/op":
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return Result{}, false
			}
			r.AllocsPerOp = &v
			r.HasMem = true
		}
	}
	return r, r.NsPerOp > 0 || r.Iterations > 0
}

func hasUnit(fields []string, unit string) bool {
	for _, f := range fields {
		if f == unit {
			return true
		}
	}
	return false
}
