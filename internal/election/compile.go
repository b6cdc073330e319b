package election

import (
	"encoding/json"
	"fmt"
	"strconv"

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
	// PhaseTable is the compiled execution plan of the protocol, embedded so
	// deployed nodes can execute without recompiling the lists. It is
	// optional in the artifact: absent (older artifacts), Load recompiles it
	// from the blueprint; present, Load validates it against a
	// recompilation before accepting it.
	PhaseTable *canonical.PhaseTable `json:"phase_table,omitempty"`
	// ArtifactDigest is the hex-encoded 64-bit digest recorded at compile
	// time over the blueprint and the phase table together
	// (canonical.ArtifactDigest), so it can only verify against the
	// (blueprint, table) pair the compiler actually produced. LoadTrusted
	// adopts the embedded table without recompiling when it verifies; Load
	// ignores it and always performs the full recompile-and-compare
	// validation (the digest is recomputable by anyone who can edit the
	// artifact, so honoring it is an explicit caller-side trust decision).
	ArtifactDigest string `json:"artifact_digest,omitempty"`
}

// Compile returns the serializable form of the dedicated algorithm.
func (d *Dedicated) Compile() *Compiled {
	match := d.Algorithm.Decision.(drip.HistoryMatchDecision)
	table := d.DRIP.Table()
	return &Compiled{
		ConfigName:     d.Config.Name,
		Blueprint:      d.DRIP.Blueprint(),
		LeaderHistory:  match.Target.Clone(),
		ExpectedLeader: d.ExpectedLeader,
		LocalRounds:    d.LocalRounds,
		RoundBound:     d.RoundBound,
		PhaseTable:     table,
		ArtifactDigest: fmt.Sprintf("%016x", canonical.ArtifactDigest(d.DRIP.Sigma, d.DRIP.Lists, table)),
	}
}

// MarshalJSON is provided so a *Dedicated can be written directly.
func (d *Dedicated) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.Compile())
}

// Load rebuilds an executable dedicated algorithm from its compiled form and
// the configuration it is meant to run on. The configuration is required
// because the compiled artifact intentionally contains only what the
// anonymous nodes need (protocol + decision data), not the network itself.
// Load re-checks that the artifact matches the configuration: the spans must
// agree and the designated leader must exist. An embedded phase table is
// always fully validated against a recompilation from the blueprint; use
// LoadTrusted to let an artifact's content digest stand in for that
// validation on trusted deployment paths.
func Load(c *Compiled, cfg *config.Config) (*Dedicated, error) {
	return load(c, cfg, false)
}

// LoadTrusted is Load with the digest fast path enabled: when the artifact
// carries an artifact_digest that verifies over its blueprint and embedded
// phase table together, the table is adopted without the
// recompile-and-compare validation (a missing or stale digest falls back to
// the full validation, which still rejects tables that disagree with the
// blueprint).
//
// The trust decision deliberately lives at this call site and not in the
// artifact: the digest is a plain content hash that anyone who can tamper
// with the table can recompute, so the fast path is only sound for
// artifacts from a source the deployment already trusts (its own compile
// pipeline, a signed store). For artifacts of unknown provenance use Load.
func LoadTrusted(c *Compiled, cfg *config.Config) (*Dedicated, error) {
	return load(c, cfg, true)
}

func load(c *Compiled, cfg *config.Config, trustDigest bool) (*Dedicated, error) {
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
	var (
		dg  *canonical.DRIP
		err error
	)
	digest, haveDigest := parseArtifactDigest(c.ArtifactDigest)
	if trustDigest && haveDigest && c.PhaseTable != nil {
		// Digest fast path: adopt the embedded table when the artifact
		// digest verifies, skipping the recompilation from the lists; a
		// stale digest or mismatched shape falls back to the
		// recompile-and-compare validation inside FromCompiled.
		// FromCompiled's errors already name their origin (blueprint vs
		// rejected table), matching the diagnostics of the untrusted branch.
		dg, _, err = canonical.FromCompiled(c.Blueprint.Sigma, c.Blueprint.Lists, c.PhaseTable, digest)
		if err != nil {
			return nil, err
		}
	} else {
		dg, err = canonical.FromLists(c.Blueprint.Sigma, c.Blueprint.Lists)
		if err != nil {
			return nil, err
		}
		if c.PhaseTable != nil {
			// Install the artifact's own table as the executing one.
			// InstallTable validates it structurally and against a
			// recompilation from the lists: a tampered or stale table would
			// otherwise silently execute a different protocol than the
			// blueprint promises.
			if err := dg.InstallTable(c.PhaseTable); err != nil {
				return nil, fmt.Errorf("election: embedded phase table rejected: %w", err)
			}
		}
	}
	if cfg.Span() != c.Blueprint.Sigma {
		return nil, fmt.Errorf("election: compiled algorithm was built for span %d but the configuration has span %d",
			c.Blueprint.Sigma, cfg.Span())
	}
	if c.ExpectedLeader < 0 || c.ExpectedLeader >= cfg.N() {
		return nil, fmt.Errorf("election: designated leader %d out of range for %d nodes", c.ExpectedLeader, cfg.N())
	}
	if len(c.LeaderHistory) == 0 {
		return nil, fmt.Errorf("election: compiled algorithm has an empty leader history")
	}
	return &Dedicated{
		Config: cfg,
		Report: nil,
		DRIP:   dg,
		Algorithm: drip.Algorithm{
			Name:     "compiled-" + c.ConfigName,
			Protocol: dg,
			Decision: drip.HistoryMatchDecision{Target: c.LeaderHistory.Clone()},
		},
		ExpectedLeader: c.ExpectedLeader,
		LocalRounds:    c.LocalRounds,
		RoundBound:     c.RoundBound,
		target:         c.LeaderHistory.AppendCodes(nil, canonical.Message),
	}, nil
}

// parseArtifactDigest decodes the hex digest recorded by Compile; a missing
// or malformed digest simply deselects the fast path.
func parseArtifactDigest(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// UnmarshalCompiled decodes a compiled algorithm from JSON.
func UnmarshalCompiled(data []byte) (*Compiled, error) {
	var c Compiled
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("election: decoding compiled algorithm: %w", err)
	}
	return &c, nil
}
