// Package election assembles the end-to-end dedicated leader election
// pipeline of the paper: classify a configuration (Section 3), derive the
// canonical DRIP and its decision function (Section 3.3.1, Lemma 3.11),
// execute it on the radio simulator, and verify the outcome. It also
// provides executable replays of the paper's impossibility arguments
// (Propositions 4.4 and 4.5).
//
// The pipeline has a build side and a serve side. Building (BuildDedicated,
// or BuildDedicatedInto on a reusable BuildArena) classifies with the turbo
// engine of package core and derives the canonical DRIP of package
// canonical; serving (Dedicated.Elect / ElectInto) replays the protocol on
// a pooled radio.Simulator at zero allocations per election. A built
// algorithm can be persisted as a Compiled artifact — exactly what the
// paper installs on the anonymous nodes — and loaded back with Load (full
// validation) or LoadTrusted (the digest fast path for artifacts from a
// trusted pipeline). Package service serves fleets of these algorithms from
// worker-owned shards, and internal/server exposes that registry over HTTP.
package election

import (
	"errors"
	"fmt"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/drip"
	"anonradio/internal/history"
	"anonradio/internal/radio"
)

// ErrInfeasible is returned by BuildDedicated when the configuration admits
// no leader election algorithm.
var ErrInfeasible = errors.New("election: configuration is infeasible")

// Dedicated is a dedicated leader election algorithm (D_G, f_G) for one
// specific feasible configuration, together with the artifacts it was built
// from.
type Dedicated struct {
	// Config is the (normalized) configuration the algorithm is dedicated to.
	Config *config.Config
	// Report is the Classifier report.
	Report *core.Report
	// DRIP is the canonical protocol D_G.
	DRIP *canonical.DRIP
	// Algorithm bundles the protocol with the decision function f_G.
	Algorithm drip.Algorithm
	// ExpectedLeader is the node the decision function designates.
	ExpectedLeader int
	// LocalRounds is the local round in which every node terminates.
	LocalRounds int
	// RoundBound is an upper bound on the number of global rounds of the
	// whole election: every node is awake by round σ and terminates
	// LocalRounds rounds later.
	RoundBound int

	// sim is the pooled reusable simulator bound to Config. It executes the
	// build-time canonical run and every sequential Elect, so repeated
	// elections on one Dedicated reuse all simulation buffers. Because of
	// that pooling, a Dedicated is not safe for concurrent Elect calls.
	sim *radio.Simulator
}

// simulator returns the pooled simulator, creating it on first use (loaded
// compiled artifacts start without one).
func (d *Dedicated) simulator() (*radio.Simulator, error) {
	if d.sim == nil {
		sim, err := radio.NewSimulator(d.Config)
		if err != nil {
			return nil, err
		}
		d.sim = sim
	}
	return d.sim, nil
}

// BuildDedicated classifies cfg and, if it is feasible, constructs the
// dedicated leader election algorithm for it. The decision function is the
// history-match function of Lemma 3.11: it elects exactly the node whose
// complete history equals the designated leader's history in the canonical
// execution, which is computed here on the dedicated algorithm's pooled
// simulator.
//
// The classification runs in the turbo engine's lean mode: building the
// algorithm needs only the verdict, leader and lists, not the per-iteration
// snapshots (Report.Iterations stays correct on lean reports via the Stats
// counter, and VerifyCorrespondence re-derives snapshots on demand). Callers
// that want the full partition evolution attached should classify themselves
// and use BuildFromReport.
func BuildDedicated(cfg *config.Config) (*Dedicated, error) {
	report, err := core.ClassifyTurbo(cfg, core.ClassifyOptions{})
	if err != nil {
		return nil, err
	}
	return buildFromReport(report)
}

// BuildFromReport constructs the dedicated algorithm from an existing
// Classifier report (avoiding a second classification).
func BuildFromReport(report *core.Report) (*Dedicated, error) {
	if report == nil {
		return nil, fmt.Errorf("election: nil report")
	}
	return buildFromReport(report)
}

// buildFromReport is the one-shot build: the canonical run executes on a
// fresh simulator, which then stays attached to the Dedicated and serves
// its Elect calls.
func buildFromReport(report *core.Report) (*Dedicated, error) {
	return buildOnSimulator(report, radio.NewSimulator, true)
}

// buildOnSimulator is the shared core of the one-shot and arena build
// paths: check feasibility, derive the canonical DRIP, obtain the
// canonical-run simulator through provide, and assemble the Dedicated
// (retaining the simulator only when keep is set — the arena reuses its
// simulator for the next build instead).
func buildOnSimulator(report *core.Report, provide func(*config.Config) (*radio.Simulator, error), keep bool) (*Dedicated, error) {
	if !report.Feasible() {
		return nil, fmt.Errorf("%w: %s", ErrInfeasible, report.Config)
	}
	dg, err := canonical.New(report)
	if err != nil {
		return nil, err
	}
	sim, err := provide(report.Config)
	if err != nil {
		return nil, err
	}
	keepSim := sim
	if !keep {
		keepSim = nil
	}
	return finishBuild(report, dg, sim, keepSim)
}

// finishBuild executes the canonical DRIP on runSim to derive the designated
// leader's history and assembles the Dedicated. keepSim is the simulator the
// Dedicated retains for its own elections: the one-shot build path passes
// runSim itself, the arena path passes nil (the arena's simulator is reused
// for the next build, and the Dedicated creates its own lazily on first
// Elect).
func finishBuild(report *core.Report, dg *canonical.DRIP, runSim, keepSim *radio.Simulator) (*Dedicated, error) {
	cfg := report.Config
	res, err := runSim.Run(dg, radio.Options{})
	if err != nil {
		return nil, fmt.Errorf("election: canonical DRIP simulation failed: %w", err)
	}
	leader := report.Leader
	target := res.Histories[leader].Clone()

	// Sanity check (Lemma 3.11): the designated leader's history must be
	// unique among all nodes.
	for v := 0; v < cfg.N(); v++ {
		if v != leader && res.Histories[v].Equal(target) {
			return nil, fmt.Errorf("election: node %d shares the designated leader's history; classifier/DRIP mismatch", v)
		}
	}

	d := &Dedicated{
		Config: cfg,
		Report: report,
		DRIP:   dg,
		Algorithm: drip.Algorithm{
			Name:     "canonical-" + cfg.Name,
			Protocol: dg,
			Decision: drip.HistoryMatchDecision{Target: target},
		},
		ExpectedLeader: leader,
		LocalRounds:    dg.TerminationRound(),
		RoundBound:     cfg.Span() + dg.TerminationRound() + 1,
		sim:            keepSim,
	}
	return d, nil
}

// finishBuildInto is finishBuild for the rebuild-in-place path: report and
// dg are already rebuilt from prev's recycled memory, and the remaining
// retained pieces — the decision target's history buffer, the algorithm
// name, the pooled serving simulator and the Dedicated struct itself — are
// recycled here. The canonical run executes on runSim (the arena's
// simulator), exactly as in the fresh arena build.
func finishBuildInto(prev *Dedicated, report *core.Report, dg *canonical.DRIP, runSim *radio.Simulator) (*Dedicated, error) {
	cfg := report.Config
	res, err := runSim.Run(dg, radio.Options{})
	if err != nil {
		return nil, fmt.Errorf("election: canonical DRIP simulation failed: %w", err)
	}
	leader := report.Leader
	var targetBuf history.Vector
	if match, ok := prev.Algorithm.Decision.(drip.HistoryMatchDecision); ok {
		targetBuf = match.Target
	}
	target := append(targetBuf[:0], res.Histories[leader]...)

	// Sanity check (Lemma 3.11): the designated leader's history must be
	// unique among all nodes.
	for v := 0; v < cfg.N(); v++ {
		if v != leader && res.Histories[v].Equal(target) {
			return nil, fmt.Errorf("election: node %d shares the designated leader's history; classifier/DRIP mismatch", v)
		}
	}

	// Keep the previous algorithm name when it already spells the new one
	// (the comparison is allocation-free; re-admitting the same key with a
	// same-named configuration is the common churn).
	name := prev.Algorithm.Name
	const prefix = "canonical-"
	if len(name) != len(prefix)+len(cfg.Name) || name[:len(prefix)] != prefix || name[len(prefix):] != cfg.Name {
		name = prefix + cfg.Name
	}

	// Rebind the previous pooled serving simulator to the new
	// configuration; if it will not rebind, drop it (a fresh one is
	// created lazily on first Elect).
	sim := prev.sim
	if sim != nil && sim.Reset(cfg) != nil {
		sim = nil
	}

	*prev = Dedicated{
		Config: cfg,
		Report: report,
		DRIP:   dg,
		Algorithm: drip.Algorithm{
			Name:     name,
			Protocol: dg,
			Decision: drip.HistoryMatchDecision{Target: target},
		},
		ExpectedLeader: leader,
		LocalRounds:    dg.TerminationRound(),
		RoundBound:     cfg.Span() + dg.TerminationRound() + 1,
		sim:            sim,
	}
	return prev, nil
}

// Elect executes the dedicated algorithm on its configuration with the given
// engine and returns the outcome. A nil or Sequential engine runs on the
// algorithm's pooled simulator, so repeated elections reuse every simulation
// buffer; the outcome's Result then points into those buffers and is valid
// until the next run on this Dedicated. The Parallel engine executes a
// one-shot run on a fresh worker-pool simulator.
func (d *Dedicated) Elect(engine radio.Engine, opts radio.Options) (*radio.ElectionOutcome, error) {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = d.RoundBound + 1
	}
	if engine == nil {
		engine = radio.Sequential{}
	}
	if _, pooled := engine.(radio.Sequential); pooled && !opts.RecordTrace {
		out := &radio.ElectionOutcome{}
		if err := d.electInto(out, opts); err != nil {
			return nil, err
		}
		return out, nil
	}
	return radio.RunElection(engine, d.Config, d.Algorithm, opts)
}

// ElectInto is the steady-state serving path: it runs the election on the
// pooled simulator and reuses out's buffers, so after a warm-up call the
// whole round loop — canonical Act through the compiled phase table, the
// dirty-list medium, the history-match decision — performs zero heap
// allocations (TestElectSteadyStateAllocs pins this). The outcome's Result
// aliases the pooled simulator and is valid until the next run on this
// Dedicated.
func (d *Dedicated) ElectInto(out *radio.ElectionOutcome, opts radio.Options) error {
	if out == nil {
		return fmt.Errorf("election: nil outcome")
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = d.RoundBound + 1
	}
	return d.electInto(out, opts)
}

func (d *Dedicated) electInto(out *radio.ElectionOutcome, opts radio.Options) error {
	if d.Algorithm.Protocol == nil || d.Algorithm.Decision == nil {
		return fmt.Errorf("election: incomplete algorithm %q", d.Algorithm.Name)
	}
	sim, err := d.simulator()
	if err != nil {
		return err
	}
	res, err := sim.Run(d.Algorithm.Protocol, opts)
	if err != nil {
		return err
	}
	out.Result = res
	out.Rounds = res.GlobalRounds
	out.Leaders = out.Leaders[:0]
	for v := 0; v < d.Config.N(); v++ {
		if d.Algorithm.Decision.Decide(res.Histories[v]) == 1 {
			out.Leaders = append(out.Leaders, v)
		}
	}
	return nil
}

// Verify checks that an election outcome is correct for this dedicated
// algorithm: exactly one leader, equal to the expected one, within the round
// bound.
func (d *Dedicated) Verify(out *radio.ElectionOutcome) error {
	if out == nil {
		return fmt.Errorf("election: nil outcome")
	}
	if !out.Elected() {
		return fmt.Errorf("election: expected exactly one leader, got %v", out.Leaders)
	}
	if out.Leader() != d.ExpectedLeader {
		return fmt.Errorf("election: elected node %d, expected %d", out.Leader(), d.ExpectedLeader)
	}
	if out.Rounds > d.RoundBound {
		return fmt.Errorf("election: took %d rounds, bound is %d", out.Rounds, d.RoundBound)
	}
	return nil
}

// VerifyCorrespondence checks the executable content of Lemma 3.9 on a
// simulation result of the canonical DRIP: for every iteration j >= 1 and
// every pair of nodes, the nodes are in the same equivalence class after
// iteration j-1 of the Classifier (class index vCLASS,j) if and only if
// their histories agree up to local round r_{j-1}.
//
// The check needs the per-iteration snapshots. When the attached report is
// lean (BuildDedicated classifies without snapshots), the configuration is
// re-classified with snapshot recording here — the verification path pays
// for the history it inspects, the election hot path does not.
func (d *Dedicated) VerifyCorrespondence(res *radio.Result) error {
	if d.Report == nil {
		return fmt.Errorf("election: no classifier report attached (algorithm loaded from a compiled artifact)")
	}
	report := d.Report
	if len(report.Snapshots) <= d.DRIP.Phases()-1 {
		full, err := core.ClassifyTurbo(d.Config, core.ClassifyOptions{RecordSnapshots: true})
		if err != nil {
			return fmt.Errorf("election: re-classifying for snapshot history: %w", err)
		}
		report = full
	}
	n := d.Config.N()
	for j := 1; j <= d.DRIP.Phases(); j++ {
		snap := report.Snapshots[j-1]
		upTo := d.DRIP.PhaseEnd(j - 1)
		for v := 0; v < n; v++ {
			for w := v + 1; w < n; w++ {
				sameClass := snap.Classes[v] == snap.Classes[w]
				sameHist := res.Histories[v].EqualPrefix(res.Histories[w], upTo)
				if sameClass != sameHist {
					return fmt.Errorf("election: Lemma 3.9 violated at j=%d nodes %d,%d: sameClass=%v sameHistory=%v",
						j, v, w, sameClass, sameHist)
				}
			}
		}
	}
	return nil
}

// Feasible classifies cfg and reports whether it is feasible; it is a thin
// convenience wrapper used by the examples and the harness.
func Feasible(cfg *config.Config) (bool, error) {
	return core.IsFeasible(cfg)
}
