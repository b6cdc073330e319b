// Command inspect gives a complete picture of a configuration: the
// classifier's verdict and partition evolution, the structure of the
// canonical protocol, the execution metrics of the election, and a per-node
// summary of what each node experienced.
//
// Usage:
//
//	inspect -config cfg.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"anonradio"
)

func main() {
	path := flag.String("config", "", "configuration file (default: read standard input)")
	flag.Parse()

	cfg, err := readConfig(*path)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== configuration ==")
	fmt.Print(cfg.Describe())

	report, err := anonradio.Classify(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\n== classifier ==")
	fmt.Print(report.Summary())

	if !report.Feasible() {
		fmt.Println("\nconfiguration is infeasible: no leader election algorithm exists")
		os.Exit(2)
	}

	dedicated, err := anonradio.BuildElection(cfg)
	if err != nil {
		if errors.Is(err, anonradio.ErrInfeasible) {
			os.Exit(2)
		}
		fatal(err)
	}
	fmt.Println("\n== dedicated algorithm ==")
	fmt.Printf("phases:            %d\n", dedicated.DRIP.Phases())
	fmt.Printf("local rounds:      %d\n", dedicated.LocalRounds)
	fmt.Printf("round bound:       %d\n", dedicated.RoundBound)
	fmt.Printf("designated leader: node %d\n", dedicated.ExpectedLeader)

	res, err := anonradio.Simulate(dedicated, true)
	if err != nil {
		fatal(err)
	}
	metrics, err := anonradio.ComputeMetrics(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\n== execution metrics ==")
	fmt.Println(metrics.String())

	fmt.Println("\n== per-node summary ==")
	for v := 0; v < cfg.N(); v++ {
		h := res.Histories[v]
		fmt.Printf("node %3d: wake=%-4d forced=%-5v tx=%-3d heard=%-3d noise=%-3d done(local)=%d\n",
			v, res.WakeRound[v], res.Forced[v], metrics.PerNodeTransmissions[v],
			countMessages(h), countNoise(h), res.DoneLocal[v])
	}

	timeline, err := anonradio.BuildTimeline(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\n== timeline ==")
	fmt.Print(timeline.String())

	fmt.Println("\n== transcript ==")
	fmt.Print(res.Trace.String())
}

func countMessages(h anonradio.History) int { return h.CountKind(anonradio.HistoryMessage) }
func countNoise(h anonradio.History) int    { return h.CountKind(anonradio.HistoryNoise) }

func readConfig(path string) (*anonradio.Config, error) {
	if path == "" {
		return anonradio.ParseConfig(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return anonradio.ParseConfig(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "inspect:", err)
	os.Exit(1)
}
