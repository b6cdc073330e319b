// Concurrent network: execute the canonical leader election protocol with
// the parallel engine — the worker-pool executor that shards the per-round
// protocol computations across goroutines — and check that it behaves
// identically to the deterministic sequential reference engine.
//
// Run with:
//
//	go run ./examples/concurrent-network [-n 64] [-seed 3]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"anonradio"
)

func main() {
	var (
		n    = flag.Int("n", 64, "number of nodes")
		seed = flag.Int64("seed", 3, "random seed used to draw the configuration")
	)
	flag.Parse()

	// Draw random configurations until a feasible one appears (with distinct
	// wake-up tags in a moderate span, most draws are feasible).
	var cfg *anonradio.Config
	for attempt := 0; ; attempt++ {
		candidate := anonradio.RandomConfig(*n, 4.0/float64(*n), *n/2, *seed+int64(attempt))
		ok, err := anonradio.IsFeasible(candidate)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			cfg = candidate
			break
		}
		if attempt > 100 {
			log.Fatal("no feasible configuration found in 100 attempts; try another seed")
		}
	}
	fmt.Printf("configuration: %s\n\n", cfg)

	dedicated, err := anonradio.BuildElection(cfg)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	seqRes, err := anonradio.Simulate(dedicated, anonradio.SequentialEngine, false)
	if err != nil {
		log.Fatal(err)
	}
	seqTime := time.Since(start)

	start = time.Now()
	parRes, err := anonradio.Simulate(dedicated, anonradio.ParallelEngine, false)
	if err != nil {
		log.Fatal(err)
	}
	parTime := time.Since(start)

	identical := seqRes.GlobalRounds == parRes.GlobalRounds
	for v := 0; v < cfg.N() && identical; v++ {
		identical = seqRes.Histories[v].Equal(parRes.Histories[v])
	}

	fmt.Printf("global rounds:        %d\n", seqRes.GlobalRounds)
	fmt.Printf("sequential engine:    %v\n", seqTime.Round(time.Microsecond))
	fmt.Printf("parallel engine:      %v (worker-pool executor)\n", parTime.Round(time.Microsecond))
	fmt.Printf("identical executions: %v\n\n", identical)

	out, _, err := anonradio.ElectWith(cfg, anonradio.ParallelEngine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leader elected by the parallel run: node %d (in %d rounds, bound %d)\n",
		out.Leader(), out.Rounds, dedicated.RoundBound)
}
