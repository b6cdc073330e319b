// Command benchpair runs the repository's end-to-end benchmark in
// alternating pairs on two checkouts — a parent commit and a change — and
// judges every end-to-end metric of BENCHMARK.json by the benchmark's rule.
//
// Usage:
//
//	go run ./cmd/benchpair -parent ../parent -change . -workloads serve-large -pairs 10 -seed 4001
//	go run ./cmd/benchpair -replay pairs.jsonl
//
// Pair i runs seed -seed+i on both checkouts, each with the change's
// BENCHMARK.json command (`bash fleetbench/run.sh`) and `--workload W --seed
// S --seconds <run_seconds> --trace 0`, from the checkout's root; the
// parent runs first in even pairs, the change in odd ones. Every run's
// result line is appended to -log (default pairs.jsonl), and -replay
// prints the tables of a log again without running anything; both read the
// metrics and their bounds from the BENCHMARK.json in -change.
//
// Per workload and metric it prints each side's median and quartiles, the
// change's median over the parent's, the pairs the change won, and the
// verdict: a gain only when the change won at least nine pairs in ten and
// its median beats the parent's by more than the parent's interquartile
// range; a regression when it is worse by more than the metric's bound;
// unresolved when either side's interquartile range is wider than the
// bound, unless every change run beats every parent run; otherwise within
// bound. A seed run more than once counts once per pair of runs, so a
// replayed log judges every pair it holds. It also reports `failed` per
// side. The exit status is 1 when any metric regressed or is unresolved, or
// any run failed an operation.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// benchmark is the part of BENCHMARK.json the runner reads.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []Metric `json:"end_to_end"`
}

// result is the last line of one benchmark run.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// record is one run in the log.
type record struct {
	Workload string `json:"workload"`
	Seed     int    `json:"seed"`
	Seconds  int    `json:"seconds"`
	Side     string `json:"side"` // "parent" or "change"
	Result   result `json:"result"`
}

func main() {
	parent := flag.String("parent", "", "checkout of the parent commit")
	change := flag.String("change", ".", "checkout of the change")
	workloads := flag.String("workloads", "serve-large", "comma-separated workloads")
	pairs := flag.Int("pairs", 10, "pairs per workload")
	seed := flag.Int("seed", 1, "seed of the first pair; pair i runs seed+i")
	logPath := flag.String("log", "pairs.jsonl", "append every run's result to this file")
	replay := flag.String("replay", "", "print the tables of this log instead of running")
	flag.Parse()

	spec, err := readBenchmark(filepath.Join(*change, "BENCHMARK.json"))
	if err != nil {
		fail(err)
	}
	var recs []record
	if *replay != "" {
		if recs, err = readLog(*replay); err != nil {
			fail(err)
		}
	} else {
		if *parent == "" {
			fail(errors.New("-parent is required"))
		}
		dirs := map[string]string{"parent": *parent, "change": *change}
		log, err := os.OpenFile(*logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fail(err)
		}
		for _, w := range strings.Split(*workloads, ",") {
			for i := 0; i < *pairs; i++ {
				order := []string{"parent", "change"}
				if i%2 == 1 {
					order[0], order[1] = order[1], order[0]
				}
				for _, side := range order {
					rec := record{Workload: w, Seed: *seed + i, Seconds: spec.RunSeconds, Side: side}
					fmt.Fprintf(os.Stderr, "benchpair: %s seed %d pair %d/%d %s\n", w, rec.Seed, i+1, *pairs, side)
					if rec.Result, err = runOnce(dirs[side], spec, w, rec.Seed); err != nil {
						fail(fmt.Errorf("%s %s seed %d: %w", side, w, rec.Seed, err))
					}
					line, _ := json.Marshal(rec)
					if _, err := fmt.Fprintf(log, "%s\n", line); err != nil {
						fail(err)
					}
					recs = append(recs, rec)
				}
			}
		}
		log.Close()
	}
	if !report(os.Stdout, spec.EndToEnd, recs) {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchpair:", err)
	os.Exit(2)
}

func readBenchmark(path string) (benchmark, error) {
	var b benchmark
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Command) == 0 || len(b.EndToEnd) == 0 {
		return b, fmt.Errorf("%s: no command or no end-to-end metrics", path)
	}
	return b, nil
}

func readLog(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// runOnce runs the benchmark once in dir and parses its last stdout line.
func runOnce(dir string, spec benchmark, workload string, seed int) (result, error) {
	args := append(spec.Command[1:len(spec.Command):len(spec.Command)],
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
	cmd := exec.Command(spec.Command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%w\n%s", err, tail(stderr.String(), 2000))
	}
	return parseResult(stdout.Bytes())
}

// parseResult decodes the last non-empty line of a run's output.
func parseResult(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %w", err)
	}
	if res.Metrics == nil {
		return res, errors.New("result line carries no metrics")
	}
	return res, nil
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// report prints one table per workload, in the order the log first names
// them, and returns false when any metric regressed or is unresolved, a
// metric is missing, or any run failed an operation.
func report(w io.Writer, metrics []Metric, recs []record) bool {
	ok := true
	var order []string
	byWorkload := map[string][]record{}
	for _, r := range recs {
		if _, seen := byWorkload[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, wl := range order {
		parent, change := pairUp(byWorkload[wl])
		seeds := make([]int, len(parent))
		for i, r := range parent {
			seeds[i] = r.Seed
		}
		fmt.Fprintf(w, "\n%s: %d pairs, seeds %v\n\n", wl, len(parent), seeds)
		fmt.Fprintln(w, "| metric | parent: median (q1–q3) | change: median (q1–q3) | change/parent | change won | verdict |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|")
		for _, m := range metrics {
			pv, cv, found := values(m.Name, parent, change)
			if !found {
				fmt.Fprintf(w, "| `%s` | missing | missing | | | |\n", m.Name)
				ok = false
				continue
			}
			s := Judge(m, pv, cv)
			if s.Verdict == Regression || s.Verdict == Unresolved {
				ok = false
			}
			fmt.Fprintf(w, "| `%s` | %s | %s | %.2f | %d/%d | %s |\n", m.Name, quart(s.Parent), quart(s.Change), s.Ratio, s.Won, s.Pairs, s.Verdict)
		}
		for _, side := range []struct {
			name string
			runs []record
		}{{"parent", parent}, {"change", change}} {
			var failed, attempted int64
			incorrect := 0
			for _, r := range side.runs {
				failed += r.Result.Failed
				attempted += r.Result.Attempted
				if !r.Result.Correct {
					incorrect++
				}
			}
			if failed > 0 || incorrect > 0 {
				ok = false
			}
			fmt.Fprintf(w, "\n%s: failed %d of %d operations; %d of %d runs not correct", side.name, failed, attempted, incorrect, len(side.runs))
		}
		fmt.Fprintln(w)
	}
	return ok
}

// pairUp returns the parent and change runs of the complete pairs, ordered
// by seed: both runs of a pair share its seed, and the k-th parent run of a
// seed pairs with its k-th change run. A seed run again adds pairs and
// replaces none, so every pair in the log is judged.
func pairUp(recs []record) (parent, change []record) {
	runs := map[int]map[string][]record{}
	for _, r := range recs {
		if r.Side != "parent" && r.Side != "change" {
			continue
		}
		if runs[r.Seed] == nil {
			runs[r.Seed] = map[string][]record{}
		}
		runs[r.Seed][r.Side] = append(runs[r.Seed][r.Side], r)
	}
	for _, seed := range slices.Sorted(maps.Keys(runs)) {
		p, c := runs[seed]["parent"], runs[seed]["change"]
		k := min(len(p), len(c))
		parent, change = append(parent, p[:k]...), append(change, c[:k]...)
	}
	return parent, change
}

// values extracts one metric from both sides' runs; found is false when
// any run lacks it.
func values(name string, parent, change []record) (pv, cv []float64, found bool) {
	for i := range parent {
		p, okP := parent[i].Result.Metrics[name]
		c, okC := change[i].Result.Metrics[name]
		if !okP || !okC {
			return nil, nil, false
		}
		pv, cv = append(pv, p.Value), append(cv, c.Value)
	}
	return pv, cv, len(pv) > 0
}

func quart(q Quartiles) string {
	return fmt.Sprintf("%s (%s–%s)", num(q.Median), num(q.Q1), num(q.Q3))
}

// num formats a figure with at least three significant digits: whole
// numbers from 100 up, two decimals from 10, three below.
func num(x float64) string {
	switch a := math.Abs(x); {
	case a >= 100:
		return strconv.FormatFloat(x, 'f', 0, 64)
	case a >= 10:
		return strconv.FormatFloat(x, 'f', 2, 64)
	}
	return strconv.FormatFloat(x, 'f', 3, 64)
}
