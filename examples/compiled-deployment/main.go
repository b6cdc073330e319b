// Compiled deployment: the workflow the paper implies for dedicated
// algorithms. Feasibility and the dedicated protocol are computed centrally
// (with full knowledge of the configuration), the result is serialized into
// a small artifact — the span σ, the lists L_1..L_jterm of the canonical
// DRIP and the designated leader's history — and that artifact is what gets
// "installed" identically on every anonymous node. Later, the artifact is
// loaded and executed without re-running the Classifier.
//
// Run with:
//
//	go run ./examples/compiled-deployment
package main

import (
	"encoding/json"
	"fmt"
	"log"

	"anonradio"
)

func main() {
	// The network operator knows the deployment: a line of 13 nodes whose
	// wake-up schedule is the paper's G_3 configuration.
	cfg := anonradio.LineFamilyG(3)
	fmt.Printf("deployment configuration: %s\n\n", cfg)

	// Phase 1 (offline, centralized): classify and compile.
	dedicated, err := anonradio.BuildElection(cfg)
	if err != nil {
		log.Fatal(err)
	}
	artifact, err := json.MarshalIndent(anonradio.CompileElection(dedicated), "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled artifact: %d bytes of JSON\n", len(artifact))
	fmt.Printf("  phases: %d, local rounds per node: %d, designated leader: node %d\n\n",
		dedicated.DRIP.Phases(), dedicated.LocalRounds, dedicated.ExpectedLeader)

	// Phase 2 (online, distributed): the artifact is shipped to the nodes.
	// Here we just decode it again and run it.
	decoded, err := anonradio.ParseCompiledElection(artifact)
	if err != nil {
		log.Fatal(err)
	}
	outcome, loaded, err := anonradio.ElectCompiled(decoded, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("election from the compiled artifact: leader node %d in %d rounds (bound %d)\n\n",
		outcome.Leader(), outcome.Rounds, loaded.RoundBound)

	// Phase 3: inspect what actually happened on the air.
	res, err := anonradio.Simulate(loaded, true)
	if err != nil {
		log.Fatal(err)
	}
	metrics, err := anonradio.ComputeMetrics(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("medium usage: %s\n\n", metrics.String())

	timeline, err := anonradio.BuildTimeline(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-node timeline:")
	fmt.Print(timeline.String())
}
