// Quickstart: build a small anonymous radio network, check whether leader
// election is possible on it, and run the dedicated canonical algorithm.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"anonradio"
)

func main() {
	// A 4-node line a-b-c-d. The two middle nodes wake up first (tag 0), the
	// endpoints wake up later (tags 2 and 3). This is configuration H_2 of
	// the paper, which is feasible.
	cfg, err := anonradio.NewConfig(
		4,
		[][2]int{{0, 1}, {1, 2}, {2, 3}},
		[]int{2, 0, 0, 3},
		"quickstart",
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cfg.Describe())

	// Step 1: decide feasibility with the Classifier (Theorem 3.17).
	report, err := anonradio.Classify(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("feasible: %v (decided in %d refinement iterations)\n\n",
		report.Feasible(), report.Iterations())
	if !report.Feasible() {
		fmt.Println("no deterministic leader election algorithm exists for this configuration")
		return
	}

	// Step 2: build the dedicated canonical algorithm and run the election
	// (Theorem 3.15).
	outcome, dedicated, err := anonradio.Elect(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("elected leader: node %d\n", outcome.Leader())
	fmt.Printf("election took %d global rounds (upper bound %d)\n",
		outcome.Rounds, dedicated.RoundBound)

	// Step 3: inspect the execution round by round.
	res, err := anonradio.Simulate(dedicated, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nround-by-round transcript:")
	fmt.Print(res.Trace.String())

	// A symmetric sibling of the same network — both endpoints wake at the
	// same time — is infeasible: no algorithm can ever tell them apart.
	symmetric, err := anonradio.NewConfig(
		4,
		[][2]int{{0, 1}, {1, 2}, {2, 3}},
		[]int{2, 0, 0, 2},
		"quickstart-symmetric",
	)
	if err != nil {
		log.Fatal(err)
	}
	feasible, err := anonradio.IsFeasible(symmetric)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsymmetric sibling feasible: %v\n", feasible)
}
