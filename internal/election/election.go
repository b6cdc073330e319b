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
// canonical; serving (Dedicated.ElectOn, and the convenience Elect /
// ElectInto) replays the protocol on a reusable radio.Simulator at zero
// allocations per election. A built algorithm can be persisted as a
// Compiled artifact — exactly what the paper installs on the anonymous
// nodes: σ, the lists and the designated leader's history — and loaded
// back with Load, which compiles the phase table from the lists. Package
// service serves fleets of these algorithms from worker-owned shards, each
// worker electing every key on its own simulator, and internal/server
// exposes that registry over HTTP.
package election

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

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

	// sim is the convenience simulator of the standalone Elect and
	// ElectInto, bound to Config: repeated standalone elections reuse its
	// buffers, which is why those two are not safe for concurrent use. It
	// is the one-shot build's canonical-run simulator, or created on the
	// first standalone election; algorithms built on a BuildArena, rebuilt
	// in place or loaded from artifacts start without one, and a server
	// that elects through ElectOn on its own simulators never creates it.
	sim *radio.Simulator
	// target is the decision target in entry codes (history.CodeSilence
	// and so on): the designated leader's history, which the elections
	// compare against their coded histories. The decision function's
	// Target shares its bytes.
	target []byte
}

// simulator returns the convenience simulator, creating it on first use.
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
// execution, which is computed here on a fresh simulator that the algorithm
// keeps for its standalone elections.
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
	sim, err := radio.NewSimulator(report.Config)
	if err != nil {
		return nil, err
	}
	d, err := assemble(&Dedicated{}, report, sim)
	if err != nil {
		return nil, err
	}
	d.sim = sim
	return d, nil
}

// assemble is the one build of every path — one-shot, arena and
// rebuild-in-place: it checks feasibility, derives the canonical DRIP into
// d's protocol memory, executes it on sim to derive the designated leader's
// coded history, and fills d in, recycling d's decision target and
// algorithm name; it returns d. A fresh d (the one-shot and arena builds)
// recycles nothing. The canonical run executes within the election's round bound,
// which caps the rows of sim's code matrix: rows keep their length across
// rebinds, so an arena simulator that once ran a long-span configuration
// clears only a small one's own rows. The assembled algorithm keeps no
// simulator.
func assemble(d *Dedicated, report *core.Report, sim *radio.Simulator) (*Dedicated, error) {
	cfg := report.Config
	if !report.Feasible() {
		return nil, fmt.Errorf("%w: %s", ErrInfeasible, cfg)
	}
	dg, err := canonical.NewInto(d.DRIP, report)
	if err != nil {
		return nil, err
	}
	bound := cfg.Span() + dg.TerminationRound() + 1
	res, err := sim.RunCodes(dg, radio.Options{MaxRounds: bound + 1})
	if err != nil {
		return nil, fmt.Errorf("election: canonical DRIP simulation failed: %w", err)
	}
	leader := report.Leader
	// Sanity check (Lemma 3.11): the designated leader's history must be
	// unique among all nodes.
	for v, codes := range res.Codes {
		if v != leader && bytes.Equal(codes, res.Codes[leader]) {
			return nil, fmt.Errorf("election: node %d shares the designated leader's history; classifier/DRIP mismatch", v)
		}
	}
	// Keep the previous algorithm name when it already spells the new one
	// (the comparison is allocation-free; re-admitting the same key with a
	// same-named configuration is the common churn).
	name := d.Algorithm.Name
	const prefix = "canonical-"
	if len(name) != len(prefix)+len(cfg.Name) || name[:len(prefix)] != prefix || name[len(prefix):] != cfg.Name {
		name = prefix + cfg.Name
	}
	target := append(d.target[:0], res.Codes[leader]...)
	*d = Dedicated{
		Config: cfg,
		Report: report,
		DRIP:   dg,
		Algorithm: drip.Algorithm{
			Name:     name,
			Protocol: dg,
			Decision: drip.HistoryMatchDecision{Target: target, Message: canonical.Message},
		},
		ExpectedLeader: leader,
		LocalRounds:    dg.TerminationRound(),
		RoundBound:     bound,
		target:         target,
	}
	return d, nil
}

// Elect executes the dedicated algorithm on its configuration and returns
// the outcome. An untraced election runs on the algorithm's convenience
// simulator, so repeated elections reuse every simulation buffer; the
// outcome's Result then points into those buffers and is valid until the
// next standalone election on this Dedicated. A traced election runs on a
// fresh simulator, so its Result owns its memory.
func (d *Dedicated) Elect(opts radio.Options) (*radio.ElectionOutcome, error) {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = d.RoundBound + 1
	}
	if opts.RecordTrace {
		return radio.RunElection(radio.Sequential{}, d.Config, d.Algorithm, opts)
	}
	sim, err := d.simulator()
	if err != nil {
		return nil, err
	}
	out := &radio.ElectionOutcome{}
	if err := d.electOn(sim, out, opts, true); err != nil {
		return nil, err
	}
	return out, nil
}

// ElectInto is ElectOn on the algorithm's convenience simulator, created on
// first use: repeated calls reuse its buffers, so they are not safe for
// concurrent use, and the Result is valid until the next standalone
// election on this Dedicated.
func (d *Dedicated) ElectInto(out *radio.ElectionOutcome, opts radio.Options) error {
	sim, err := d.simulator()
	if err != nil {
		return err
	}
	return d.ElectOn(sim, out, opts)
}

// ElectOn is the steady-state serving path: it runs the election on sim,
// rebinding sim to the algorithm's configuration when it is bound to
// another one, and reuses out's buffers, so once sim and out have grown to
// the largest configuration they serve, the whole election — the rebind,
// canonical ActCodes through the compiled phase table, the dirty-list medium,
// the history-match decision — performs zero heap allocations
// (TestElectSteadyStateAllocs and TestElectOnSharedSimulator pin this).
// The histories stay in entry codes: the outcome's Result carries Codes,
// not Histories, and the decision is one byte comparison per node against
// the code target. The Result aliases sim and is valid until sim's next
// run or rebind.
//
// ElectOn only reads the Dedicated, so elections of one algorithm may run
// concurrently as long as each has its own simulator and outcome; the
// election registry elects on the executing shard worker's simulator.
func (d *Dedicated) ElectOn(sim *radio.Simulator, out *radio.ElectionOutcome, opts radio.Options) error {
	if sim == nil || out == nil {
		return fmt.Errorf("election: nil simulator or outcome")
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = d.RoundBound + 1
	}
	return d.electOn(sim, out, opts, false)
}

// electOn runs the election on sim, rebound to the algorithm's
// configuration if need be, and decides on the codes; materialize also
// decodes the histories into the Result.
func (d *Dedicated) electOn(sim *radio.Simulator, out *radio.ElectionOutcome, opts radio.Options, materialize bool) error {
	if d.DRIP == nil || len(d.target) == 0 {
		return fmt.Errorf("election: incomplete algorithm %q", d.Algorithm.Name)
	}
	if sim.Config() != d.Config {
		if err := sim.Reset(d.Config); err != nil {
			return err
		}
	}
	var res *radio.Result
	var err error
	if materialize {
		res, err = sim.Run(d.DRIP, opts)
	} else {
		res, err = sim.RunCodes(d.DRIP, opts)
	}
	if err != nil {
		return err
	}
	out.Result = res
	out.Rounds = res.GlobalRounds
	out.Leaders = out.Leaders[:0]
	for v, codes := range res.Codes {
		if bytes.Equal(codes, d.target) {
			out.Leaders = append(out.Leaders, v)
		}
	}
	return nil
}

// Verify checks that an election outcome is correct for this dedicated
// algorithm: exactly one leader, equal to the expected one, within the round
// bound. When the leader is missing or wrong, the error also names the first
// local round in which the expected leader's history left the decision
// target (see divergence).
func (d *Dedicated) Verify(out *radio.ElectionOutcome) error {
	if out == nil {
		return fmt.Errorf("election: nil outcome")
	}
	if !out.Elected() {
		return fmt.Errorf("election: expected exactly one leader, got %v%s", out.Leaders, d.divergence(out.Result))
	}
	if out.Leader() != d.ExpectedLeader {
		return fmt.Errorf("election: elected node %d, expected %d%s", out.Leader(), d.ExpectedLeader, d.divergence(out.Result))
	}
	if out.Rounds > d.RoundBound {
		return fmt.Errorf("election: took %d rounds, bound is %d", out.Rounds, d.RoundBound)
	}
	return nil
}

// divergence explains a failed election in the paper's terms. The decision
// is an exact history match, so the expected leader lost it in the first
// local round whose entry differs from the target's, or where its history
// ends short of the target's. It returns "" when res holds no history for
// the leader, or one the target is a prefix of.
func (d *Dedicated) divergence(res *radio.Result) string {
	v := d.ExpectedLeader
	var codes []byte
	switch {
	case res == nil:
		return ""
	case v < len(res.Codes):
		codes = res.Codes[v]
	case v < len(res.Histories):
		codes = res.Histories[v].AppendCodes(nil, canonical.Message)
	default:
		return ""
	}
	i := 0
	for i < len(codes) && i < len(d.target) && codes[i] == d.target[i] {
		i++
	}
	switch {
	case i < len(codes) && i < len(d.target):
		return fmt.Sprintf(": leader %d diverged at local round %d: heard %s, target %s", v, i, codeSymbol(codes[i]), codeSymbol(d.target[i]))
	case len(codes) < len(d.target):
		return fmt.Sprintf(": leader %d's history ended at local round %d, target runs to %d", v, len(codes)-1, len(d.target)-1)
	}
	return ""
}

// codeSymbol renders an entry code in the paper's notation.
func codeSymbol(c byte) string {
	switch c {
	case history.CodeSilence:
		return "∅"
	case history.CodeMessage:
		return strconv.Quote(canonical.Message)
	case history.CodeNoise:
		return "∗"
	}
	return "a foreign entry"
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
