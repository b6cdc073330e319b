package radio

import (
	"fmt"

	"anonradio/internal/config"
	"anonradio/internal/drip"
)

// Sequential is the deterministic single-threaded simulation engine. It is
// the reference implementation of the model semantics; the concurrent engine
// is validated against it. Each call dedicates a fresh Simulator to the run,
// so the returned Result owns its memory; callers that execute many runs on
// the same configuration should hold a Simulator directly and reuse it.
type Sequential struct{}

// Name implements Engine.
func (Sequential) Name() string { return "sequential" }

// Run implements Engine.
func (Sequential) Run(cfg *config.Config, proto drip.Protocol, opts Options) (*Result, error) {
	if proto == nil {
		return nil, fmt.Errorf("radio: nil protocol")
	}
	sim, err := NewSimulator(cfg) // validates cfg
	if err != nil {
		return nil, err
	}
	return sim.Run(proto, opts)
}

// RunAssigned executes a heterogeneous system in which node v runs
// protos[v]. The anonymous model of the paper always installs the same
// protocol everywhere (use Engine.Run for that); per-node protocols are
// provided for the labeled baselines of the evaluation, which assume
// distinct node identifiers.
func RunAssigned(cfg *config.Config, protos []drip.Protocol, opts Options) (*Result, error) {
	if cfg == nil {
		return nil, fmt.Errorf("radio: nil configuration")
	}
	sim, err := NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	return sim.RunProtocols(protos, opts)
}
