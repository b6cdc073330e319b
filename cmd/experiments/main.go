// Command experiments regenerates the evaluation tables of the reproduction:
// the scaling measurements (E1, E2), the replays of the paper's lower bounds
// and impossibility results (E3-E6), the feasibility survey (E7), the
// baseline comparison (E9), the structural comparisons (E10, E11), the
// faulted medium (E18) and the Refine ablation (A1).
//
// Usage:
//
//	experiments [-quick] [-seed N] [-only E3] [-o results.txt]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"anonradio"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "run reduced parameter sweeps")
		seed  = flag.Int64("seed", 1, "random seed for all workloads")
		only  = flag.String("only", "", "run a single experiment (E1..E7, E9..E11, E18, A1)")
		out   = flag.String("o", "", "output file (default: standard output)")
	)
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if *only != "" {
		table, err := anonradio.RunExperiment(*only, *quick, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, table.String())
		return
	}
	if err := anonradio.RunExperiments(w, *quick, *seed); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
