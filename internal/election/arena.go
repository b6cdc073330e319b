package election

import (
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/radio"
)

// BuildArena is a reusable scratch arena for building dedicated algorithms.
// BuildDedicated pays for a fresh classifier scratch state (drawn from a
// shared pool) and a fresh simulator for the canonical run on every call;
// an arena owns both and reuses them across builds, so a service that admits
// configurations repeatedly — the sharded election registry — amortizes the
// whole build scratch to zero and keeps only the allocations that are
// genuinely retained by the built Dedicated (report, lists, phase table,
// decision target).
//
// A BuildArena is not safe for concurrent use; give each worker its own, as
// the registry's shards do.
type BuildArena struct {
	turbo *core.Turbo
	sim   *radio.Simulator
}

// NewBuildArena returns an empty build arena; buffers grow to steady state
// over the first few builds.
func NewBuildArena() *BuildArena {
	return &BuildArena{turbo: core.NewTurbo()}
}

// BuildDedicatedInto is BuildDedicated with an explicit reusable build
// arena: classification runs on the arena's turbo scratch and the canonical
// execution that derives the leader history runs on the arena's rebindable
// simulator instead of a freshly constructed one. The built Dedicated does
// not retain the arena's simulator (a standalone Elect creates one of its
// own; a server elects it with ElectOn on its workers' simulators), so the
// arena is immediately ready for the next build. A nil arena behaves
// exactly like BuildDedicated.
func BuildDedicatedInto(a *BuildArena, cfg *config.Config) (*Dedicated, error) {
	if a == nil {
		return BuildDedicated(cfg)
	}
	report, err := a.turbo.Classify(cfg, core.ClassifyOptions{})
	if err != nil {
		return nil, err
	}
	sim, err := a.simulator(report.Config)
	if err != nil {
		return nil, err
	}
	return assemble(&Dedicated{}, report, sim)
}

// RebuildInto is BuildDedicatedInto additionally recycling a previously
// built algorithm's retained memory: the classifier report (lists, labels,
// snapshots), the canonical protocol (phase ends, compiled phase table),
// the decision target and the algorithm name, plus the Dedicated struct
// itself. Like an arena-built algorithm, the rebuilt one keeps no
// simulator. Re-admitting a configuration of the same shape as prev's
// therefore approaches zero heap allocations per build
// (TestRebuildIntoAllocs pins it), while the built algorithm — verdict,
// lists, table, designated leader, round bounds — is bit-identical to a
// fresh build's.
//
// prev must be exclusively owned by the caller (displaced or evicted, with
// no outstanding aliases such as un-encoded snapshot artifacts) and must
// not be used after the call, whether it succeeds or fails. A nil prev, or
// one without a retained report (artifact-loaded algorithms), falls back to
// BuildDedicatedInto.
func (a *BuildArena) RebuildInto(prev *Dedicated, cfg *config.Config) (*Dedicated, error) {
	if a == nil || prev == nil || prev.Report == nil {
		return BuildDedicatedInto(a, cfg)
	}
	report, err := a.turbo.ClassifyInto(prev.Report, cfg, core.ClassifyOptions{})
	if err != nil {
		return nil, err
	}
	sim, err := a.simulator(report.Config)
	if err != nil {
		return nil, err
	}
	return assemble(prev, report, sim)
}

// simulator returns the arena's canonical-run simulator rebound to cfg,
// creating it on first use.
func (a *BuildArena) simulator(cfg *config.Config) (*radio.Simulator, error) {
	if a.sim == nil {
		sim, err := radio.NewSimulator(cfg)
		if err != nil {
			return nil, err
		}
		a.sim = sim
		return sim, nil
	}
	if err := a.sim.Reset(cfg); err != nil {
		return nil, err
	}
	return a.sim, nil
}
