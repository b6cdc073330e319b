// Command elect builds the dedicated canonical leader election algorithm for
// a feasible configuration, executes it on the radio-network simulator, and
// prints the elected leader (optionally with the full round-by-round trace).
//
// Usage:
//
//	elect -config cfg.txt [-trace] [-compiled alg.json|NNNN.artifact.bin|key.frame]
//	elect -compiled key.frame [-trace]
//
// A key.frame is one journal admit frame, the unit GET /v1/artifact/{key}
// serves and a snapshot's entries file holds per key; it carries its
// configuration, which -config, when given, replaces.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"anonradio"
)

func main() {
	var (
		path     = flag.String("config", "", "configuration file (default: read standard input)")
		trace    = flag.Bool("trace", false, "print the round-by-round transcript of the election")
		compiled = flag.String("compiled", "", "run a pre-compiled algorithm (JSON from cmd/compile, an earlier release's snapshot .artifact.bin, or an admit frame from GET /v1/artifact/{key} or a snapshot's entries file, which carries its configuration) instead of re-deriving it")
	)
	flag.Parse()

	var (
		artifact *anonradio.CompiledElection
		cfg      *anonradio.Config
		err      error
	)
	if *compiled != "" {
		if artifact, cfg, err = readCompiled(*compiled); err != nil {
			fatal(err)
		}
	}
	if cfg == nil || *path != "" {
		if cfg, err = readConfig(*path); err != nil {
			fatal(err)
		}
	}

	var (
		out       *anonradio.ElectionOutcome
		dedicated *anonradio.Dedicated
	)
	if artifact != nil {
		out, dedicated, err = anonradio.ElectCompiled(artifact, cfg)
	} else {
		out, dedicated, err = anonradio.Elect(cfg)
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
		res, err := anonradio.Simulate(dedicated, true)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\ntranscript:")
		fmt.Print(res.Trace.String())
	}
}

// readCompiled reads and decodes a compiled algorithm artifact, and the
// configuration it carries, if any.
func readCompiled(path string) (*anonradio.CompiledElection, *anonradio.Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return anonradio.ParseCompiledEntry(data)
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
