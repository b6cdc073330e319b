package election

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/history"
)

// This file provides a serializable form of a complete dedicated leader
// election algorithm (protocol blueprint + decision function data), mirroring
// the paper's deployment story: the algorithm is computed centrally from the
// configuration and then installed on the anonymous nodes. cmd/compile
// writes compiled algorithms to disk; cmd/elect can execute them later
// without re-running the Classifier.

// Compiled is the JSON-serializable form of a Dedicated algorithm.
type Compiled struct {
	// ConfigName records which configuration the algorithm was built for
	// (informational only).
	ConfigName string `json:"config_name"`
	// Blueprint is the canonical DRIP description (σ and the lists L_j).
	Blueprint canonical.Blueprint `json:"blueprint"`
	// LeaderHistory is the designated leader's complete history; the decision
	// function elects exactly the node whose history matches it.
	LeaderHistory history.Vector `json:"leader_history"`
	// ExpectedLeader is the node index the algorithm designates on the
	// original configuration.
	ExpectedLeader int `json:"expected_leader"`
	// LocalRounds is the local round in which every node terminates.
	LocalRounds int `json:"local_rounds"`
	// RoundBound is the global-round upper bound of the election.
	RoundBound int `json:"round_bound"`
	// PhaseTable and ArtifactDigest are never set by Compile: artifacts of
	// earlier releases embed the phase table compiled from the lists and a
	// digest over both. Load compiles the table from the blueprint and
	// refuses an artifact whose embedded table differs from it; the digest
	// is ignored, since anyone who can edit the table can recompute it.
	PhaseTable     *canonical.PhaseTable `json:"phase_table,omitempty"`
	ArtifactDigest string                `json:"artifact_digest,omitempty"`
}

// Compile returns the serializable form of the dedicated algorithm.
func (d *Dedicated) Compile() *Compiled {
	return &Compiled{
		ConfigName:     d.Config.Name,
		Blueprint:      d.DRIP.Blueprint(),
		LeaderHistory:  history.AppendDecoded(nil, d.target, canonical.Message),
		ExpectedLeader: d.ExpectedLeader,
		LocalRounds:    d.LocalRounds,
		RoundBound:     d.RoundBound,
	}
}

// MarshalJSON is provided so a *Dedicated can be written directly.
func (d *Dedicated) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.Compile())
}

// ErrInvalidArtifact is returned (wrapped) by Load for every artifact it
// rejects: one that contradicts itself or its blueprint, or does not fit
// the configuration it is loaded for. The artifact is at fault, not the
// loader, so a server answers 422. A rejection with a more specific cause,
// such as canonical.ErrRoundOverflow, wraps that too.
var ErrInvalidArtifact = errors.New("election: invalid artifact")

// Load rebuilds an executable dedicated algorithm from its compiled form and
// the configuration it is meant to run on. The configuration is required
// because the compiled artifact intentionally contains only what the
// anonymous nodes need (protocol + decision data), not the network itself.
// Load compiles the phase table from the blueprint and re-checks that the
// artifact matches the configuration and its own protocol: the spans must
// agree, the designated leader must exist, and the round counts and the
// leader history must be the protocol's. A table embedded by an earlier
// release must equal the compiled one.
func Load(c *Compiled, cfg *config.Config) (_ *Dedicated, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrInvalidArtifact, err)
		}
	}()
	if c == nil {
		return nil, fmt.Errorf("election: nil compiled algorithm")
	}
	if cfg == nil {
		return nil, fmt.Errorf("election: nil configuration")
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("election: invalid configuration: %w", err)
	}
	cfg = cfg.Normalized()
	if err := canonical.CheckCodeMatrix(cfg.N(), c.Blueprint.Sigma, c.Blueprint.Lists); err != nil {
		return nil, err
	}
	dg, err := canonical.FromLists(c.Blueprint.Sigma, c.Blueprint.Lists)
	if err != nil {
		return nil, err
	}
	if c.PhaseTable != nil && !c.PhaseTable.Equal(dg.Table()) {
		// A table that disagrees with the lists would promise a different
		// protocol than the one that runs.
		return nil, fmt.Errorf("election: embedded phase table does not match the protocol's lists")
	}
	if cfg.Span() != c.Blueprint.Sigma {
		return nil, fmt.Errorf("election: compiled algorithm was built for span %d but the configuration has span %d",
			c.Blueprint.Sigma, cfg.Span())
	}
	if c.ExpectedLeader < 0 || c.ExpectedLeader >= cfg.N() {
		return nil, fmt.Errorf("election: designated leader %d out of range for %d nodes", c.ExpectedLeader, cfg.N())
	}
	// The decision data must be what the protocol records: an election runs
	// within RoundBound and compares each node's TerminationRound+1 entries
	// with the target, so an artifact that disagrees with its protocol here
	// would be admitted and then never elect.
	term := dg.TerminationRound()
	if c.LocalRounds != term {
		return nil, fmt.Errorf("election: compiled algorithm has %d local rounds, its protocol terminates in local round %d", c.LocalRounds, term)
	}
	if bound := c.Blueprint.Sigma + term + 1; c.RoundBound != bound {
		return nil, fmt.Errorf("election: compiled algorithm has round bound %d, its protocol's is %d", c.RoundBound, bound)
	}
	if len(c.LeaderHistory) != term+1 {
		return nil, fmt.Errorf("election: compiled algorithm's leader history has %d entries, its protocol records %d", len(c.LeaderHistory), term+1)
	}
	target := c.LeaderHistory.AppendCodes(nil, canonical.Message)
	if i := bytes.IndexByte(target, history.CodeOther); i >= 0 {
		return nil, fmt.Errorf("election: compiled algorithm's leader history has %s in local round %d, which its protocol never records", c.LeaderHistory[i], i)
	}
	return &Dedicated{
		Config: cfg,
		Report: nil,
		DRIP:   dg,
		Algorithm: drip.Algorithm{
			Name:     "compiled-" + c.ConfigName,
			Protocol: dg,
			Decision: drip.HistoryMatchDecision{Target: target, Message: canonical.Message},
		},
		ExpectedLeader: c.ExpectedLeader,
		LocalRounds:    c.LocalRounds,
		RoundBound:     c.RoundBound,
		target:         target,
	}, nil
}

// UnmarshalCompiled decodes a compiled algorithm from JSON.
func UnmarshalCompiled(data []byte) (*Compiled, error) {
	var c Compiled
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("election: decoding compiled algorithm: %w", err)
	}
	return &c, nil
}
