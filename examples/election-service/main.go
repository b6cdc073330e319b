// Election service: run many configurations behind the sharded election
// service and serve steady-state elections from worker-owned shards.
//
// The service is the deployment story of the reproduction scaled up: instead
// of building one dedicated algorithm and electing once, a registry admits a
// whole fleet of configurations (classified and compiled by a builder pool
// off the serve path — synchronously, or in the background with
// RegisterAsync — or loaded from compiled artifacts) and serves elections
// with zero allocations per call and no cross-shard contention.
//
// Run with:
//
//	go run ./examples/election-service
package main

import (
	"fmt"
	"log"
	"time"

	"anonradio"
)

func main() {
	svc := anonradio.NewService(anonradio.ServiceOptions{Shards: 4})
	defer svc.Close()

	// Admit a mixed fleet: paper families of several sizes. Register
	// classifies and builds on the builder pool, then installs onto the
	// owning shard; infeasible configurations are rejected at admission
	// time.
	keys := []string{}
	for n := 4; n <= 16; n += 4 {
		key := fmt.Sprintf("clique-%d", n)
		if err := svc.Register(key, anonradio.StaggeredClique(n)); err != nil {
			log.Fatal(err)
		}
		keys = append(keys, key)
	}
	for m := 2; m <= 4; m++ {
		key := fmt.Sprintf("line-G%d", m)
		if err := svc.Register(key, anonradio.LineFamilyG(m)); err != nil {
			log.Fatal(err)
		}
		keys = append(keys, key)
	}

	// An infeasible configuration is refused.
	if err := svc.Register("bad", anonradio.SymmetricPair()); err != nil {
		fmt.Printf("admission of the symmetric pair rejected as expected:\n  %v\n\n", err)
	}

	// Admissions run on the builder pool, off the serve path — elections
	// never wait behind a build. RegisterAsync returns as soon as the build
	// is queued; poll AdmissionStatus for the outcome.
	if err := svc.RegisterAsync("async-clique", anonradio.StaggeredClique(20)); err != nil {
		log.Fatal(err)
	}
	for !svc.AdmissionStatus("async-clique").State.Terminal() {
		time.Sleep(time.Millisecond)
	}
	if st := svc.AdmissionStatus("async-clique"); st.State != anonradio.ServiceAdmissionDone {
		log.Fatalf("async admission ended %s: %v", st.State, st.Err)
	}
	fmt.Println("async admission of clique-20 landed in the background")
	keys = append(keys, "async-clique")

	// Compiled artifacts are admitted without reclassifying: compile once
	// (centrally, in the paper's story), then load — the load compiles the
	// phase table from the artifact's lists.
	cfg := anonradio.StaggeredPath(9, 2)
	d, err := anonradio.BuildElection(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := svc.RegisterCompiled("path-9", anonradio.CompileElection(d), cfg); err != nil {
		log.Fatal(err)
	}
	keys = append(keys, "path-9")

	// Serve a batch across the whole fleet: requests fan out to their
	// owning shards and run concurrently.
	outs, err := svc.ElectBatch(keys, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("one election per registered configuration:")
	for _, out := range outs {
		fmt.Printf("  %-10s leader node %-3d in %3d global rounds\n", out.Key, out.Leader, out.Rounds)
	}

	// Steady state: hammer a single key; the serve path reuses every buffer.
	const hammer = 10_000
	for i := 0; i < hammer; i++ {
		if _, err := svc.Elect("clique-16"); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\nper-shard statistics:")
	stats, err := svc.Stats()
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range stats {
		fmt.Printf("  shard %d: %2d configs, %6d elections, %d failures\n",
			s.Shard, s.Configs, s.Elections, s.Failures)
	}
	total := anonradio.ServiceTotals(stats)
	fmt.Printf("  total:   %2d configs, %6d elections, %.1f rounds/election\n",
		total.Configs, total.Elections, float64(total.Rounds)/float64(total.Elections))
}
