package radio

import (
	"fmt"

	"anonradio/internal/config"
	"anonradio/internal/drip"
)

// Parallel is the worker-pool simulation engine: a thin adapter that runs
// the zero-alloc Simulator core with the pool executor, so the per-round
// protocol computations are sharded across a persistent pool of goroutines
// while the medium resolution stays on the dirty-list fast path. Histories
// are bit-identical to the Sequential engine (the consult step is
// schedule-independent; the property suite enforces it).
//
// Because Act calls for different nodes run concurrently, protocols must be
// safe for concurrent use — which the DRIP contract already requires: a
// Protocol is a deterministic pure function of the history.
type Parallel struct {
	// Workers is the number of pool goroutines; 0 selects GOMAXPROCS.
	Workers int
}

// Name implements Engine.
func (Parallel) Name() string { return "parallel" }

// Run implements Engine. Each call dedicates a fresh pooled Simulator to the
// run (so the returned Result owns its memory as far as the caller is
// concerned); callers that execute many runs on the same configuration
// should hold a NewParallelSimulator directly and reuse it.
func (p Parallel) Run(cfg *config.Config, proto drip.Protocol, opts Options) (*Result, error) {
	if proto == nil {
		return nil, fmt.Errorf("radio: nil protocol")
	}
	sim, err := NewParallelSimulator(cfg, p.Workers)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	return sim.Run(proto, opts)
}
