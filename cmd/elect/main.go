// Command elect builds the dedicated canonical leader election algorithm for
// a feasible configuration, executes it on the radio-network simulator, and
// prints the elected leader (optionally with the full round-by-round trace).
//
// Usage:
//
//	elect -config cfg.txt [-trace] [-compiled alg.json|NNNN.artifact.bin]
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
		compiled = flag.String("compiled", "", "run a pre-compiled algorithm (JSON from cmd/compile, or a snapshot's binary .artifact.bin) instead of re-deriving it")
	)
	flag.Parse()

	cfg, err := readConfig(*path)
	if err != nil {
		fatal(err)
	}

	var (
		out       *anonradio.ElectionOutcome
		dedicated *anonradio.Dedicated
	)
	if *compiled != "" {
		out, dedicated, err = electCompiled(*compiled, cfg)
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

// electCompiled loads a compiled algorithm artifact and runs it on cfg.
func electCompiled(path string, cfg *anonradio.Config) (*anonradio.ElectionOutcome, *anonradio.Dedicated, error) {
	compiled, err := readCompiled(path)
	if err != nil {
		return nil, nil, err
	}
	return anonradio.ElectCompiled(compiled, cfg)
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
