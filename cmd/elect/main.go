// Command elect builds the dedicated canonical leader election algorithm for
// a feasible configuration, executes it on the radio-network simulator, and
// prints the elected leader (optionally with the full round-by-round trace).
//
// With -serve N it switches to the steady-state service mode: the
// configuration is admitted into a sharded election service and N elections
// are served in batches, printing throughput and per-shard statistics.
//
// Usage:
//
//	elect -config cfg.txt [-engine sequential|parallel] [-trace] [-compiled alg.json|NNNN.artifact.bin]
//	elect -config cfg.txt -serve 100000 [-shards 4] [-batch 64] [-compiled alg.json] [-trust-artifact]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"anonradio"
)

func main() {
	var (
		path     = flag.String("config", "", "configuration file (default: read standard input)")
		engine   = flag.String("engine", "sequential", "simulation engine: "+anonradio.EngineList())
		trace    = flag.Bool("trace", false, "print the round-by-round transcript of the election")
		compiled = flag.String("compiled", "", "run a pre-compiled algorithm (JSON from cmd/compile, or a snapshot's binary .artifact.bin) instead of re-deriving it")
		serve    = flag.Int("serve", 0, "service mode: admit the configuration into a sharded election service and serve N elections")
		shards   = flag.Int("shards", 0, "shard workers for -serve (0 = GOMAXPROCS)")
		batch    = flag.Int("batch", 64, "submission batch size for -serve")
		trust    = flag.Bool("trust-artifact", false, "trust -compiled artifacts from your own pipeline: a verifying phase-table digest skips the recompile validation")
	)
	flag.Parse()

	// Validate the engine up front so a typo fails with the list of valid
	// engines instead of surfacing mid-run after the classification work.
	if err := anonradio.ValidateEngine(anonradio.EngineKind(*engine)); err != nil {
		fmt.Fprintln(os.Stderr, "elect:", err)
		os.Exit(2)
	}
	if *trust && *compiled == "" {
		fmt.Fprintln(os.Stderr, "elect: -trust-artifact only applies to -compiled artifacts (a freshly built algorithm has nothing to trust)")
		os.Exit(2)
	}

	cfg, err := readConfig(*path)
	if err != nil {
		fatal(err)
	}

	if *serve > 0 {
		// The service serves on the pooled sequential path (all engines are
		// bit-identical; the service's worker-ownership replaces per-run
		// engine scheduling) and keeps no traces; reject flags that would
		// otherwise be silently ignored.
		if *trace {
			fmt.Fprintln(os.Stderr, "elect: -trace is not available in -serve mode (the service keeps no per-round transcripts)")
			os.Exit(2)
		}
		if *engine != "sequential" {
			fmt.Fprintf(os.Stderr, "elect: -engine %s is not available in -serve mode (the service serves on the pooled sequential path; outcomes are engine-independent)\n", *engine)
			os.Exit(2)
		}
		if err := runServe(cfg, *compiled, *serve, *shards, *batch, *trust); err != nil {
			if errors.Is(err, anonradio.ErrInfeasible) {
				fmt.Printf("configuration: %s\n", cfg)
				fmt.Println("feasible:      false (no leader election algorithm exists)")
				os.Exit(2)
			}
			fatal(err)
		}
		return
	}

	var (
		out       *anonradio.ElectionOutcome
		dedicated *anonradio.Dedicated
	)
	if *compiled != "" {
		out, dedicated, err = electCompiled(*compiled, cfg, anonradio.EngineKind(*engine), *trust)
	} else {
		out, dedicated, err = anonradio.ElectWith(cfg, anonradio.EngineKind(*engine))
	}
	if err != nil {
		if errors.Is(err, anonradio.ErrInfeasible) {
			fmt.Printf("configuration: %s\n", cfg)
			fmt.Println("feasible:      false (no leader election algorithm exists)")
			os.Exit(2)
		}
		fatal(err)
	}

	fmt.Printf("configuration:   %s\n", cfg)
	fmt.Printf("leader:          node %d\n", out.Leader())
	fmt.Printf("global rounds:   %d (bound %d)\n", out.Rounds, dedicated.RoundBound)
	fmt.Printf("local rounds:    %d per node\n", dedicated.LocalRounds)
	fmt.Printf("phases:          %d\n", dedicated.DRIP.Phases())

	if *trace {
		res, err := anonradio.Simulate(dedicated, anonradio.EngineKind(*engine), true)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\ntranscript:")
		fmt.Print(res.Trace.String())
	}
}

// runServe admits cfg into a sharded election service (building on the
// shard, or loading a compiled artifact when one is given) and serves
// `count` elections in batches of `batchSize`, printing throughput and
// per-shard statistics.
func runServe(cfg *anonradio.Config, compiledPath string, count, shards, batchSize int, trust bool) error {
	if batchSize < 1 {
		batchSize = 1
	}
	svc := anonradio.NewService(anonradio.ServiceOptions{Shards: shards, TrustCompiledDigests: trust})
	defer svc.Close()

	const key = "config"
	if compiledPath != "" {
		c, err := readCompiled(compiledPath)
		if err != nil {
			return err
		}
		if err := svc.RegisterCompiled(key, c, cfg); err != nil {
			return err
		}
	} else if err := svc.Register(key, cfg); err != nil {
		return err
	}

	keys := make([]string, batchSize)
	for i := range keys {
		keys[i] = key
	}
	var outs []anonradio.ServiceOutcome
	leader, rounds := -1, 0
	start := time.Now()
	for done := 0; done < count; {
		chunk := batchSize
		if rest := count - done; rest < chunk {
			chunk = rest
		}
		var err error
		outs, err = svc.ElectBatch(keys[:chunk], outs)
		if err != nil {
			return err
		}
		leader, rounds = outs[0].Leader, outs[0].Rounds
		done += chunk
	}
	elapsed := time.Since(start)

	fmt.Printf("configuration:   %s\n", cfg)
	fmt.Printf("leader:          node %d\n", leader)
	fmt.Printf("global rounds:   %d per election\n", rounds)
	fmt.Printf("elections:       %d in %s (%.0f elections/sec, batch %d)\n",
		count, elapsed.Round(time.Millisecond), float64(count)/elapsed.Seconds(), batchSize)
	stats, err := svc.Stats()
	if err != nil {
		return err
	}
	for _, s := range stats {
		fmt.Printf("shard %d:         %d configs, %d elections, %d failures\n",
			s.Shard, s.Configs, s.Elections, s.Failures)
	}
	return nil
}

// electCompiled loads a compiled algorithm artifact (fully validated, or
// via the digest fast path with -trust-artifact) and runs it on cfg.
func electCompiled(path string, cfg *anonradio.Config, engine anonradio.EngineKind, trust bool) (*anonradio.ElectionOutcome, *anonradio.Dedicated, error) {
	compiled, err := readCompiled(path)
	if err != nil {
		return nil, nil, err
	}
	if trust {
		d, err := anonradio.LoadElectionTrusted(compiled, cfg)
		if err != nil {
			return nil, nil, err
		}
		out, err := anonradio.ElectDedicated(d, engine)
		if err != nil {
			return nil, nil, err
		}
		return out, d, nil
	}
	return anonradio.ElectCompiled(compiled, cfg, engine)
}

// readCompiled reads and decodes a compiled algorithm artifact.
func readCompiled(path string) (*anonradio.CompiledElection, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return anonradio.ParseCompiledElection(data)
}

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
	fmt.Fprintln(os.Stderr, "elect:", err)
	os.Exit(1)
}
