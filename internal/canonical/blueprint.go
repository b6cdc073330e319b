package canonical

import (
	"encoding/json"
	"errors"
	"fmt"

	"anonradio/internal/core"
	"anonradio/internal/fnv"
)

// This file provides a serializable form of the canonical DRIP. The paper's
// dedicated algorithms are derived centrally (from full knowledge of the
// configuration) and then installed identically on every node; the Blueprint
// is exactly that installable artifact: the span σ and the hard-coded lists
// L_1 .. L_jterm, with nothing else attached. cmd/compile writes blueprints
// to disk and cmd/elect can execute them later without re-running the
// Classifier.

// Blueprint is the JSON-serializable description of a canonical DRIP.
type Blueprint struct {
	// Sigma is the span σ the protocol was built for.
	Sigma int `json:"sigma"`
	// Lists holds L_1 .. L_jterm.
	Lists []core.List `json:"lists"`
}

// ErrRoundOverflow is returned (wrapped) when a span makes the protocol's
// election round bound σ + TerminationRound + 1 exceed MaxRoundBound.
var ErrRoundOverflow = errors.New("canonical: protocol rounds overflow the round limit")

// MaxRoundBound is the largest election round bound σ + TerminationRound + 1
// a canonical DRIP may have. It equals radio.DefaultMaxRounds (package radio
// is not imported here; a test in package election pins the two), the
// limit under which builds used to run their canonical execution. That run
// takes exactly the round bound's global rounds: the first transmit slot is
// local round σ+1, so every node wakes at its own tag, and the node of tag
// σ terminates in global round σ + TerminationRound. A longer protocol could
// therefore never be built, and its round plans alone (16 bytes per local
// round) would be allocated before the run could fail.
const MaxRoundBound = 1_000_000

// MaxCodeMatrix is the largest code matrix, in bytes, an election of a
// canonical DRIP may record into: one byte per node per global round up to
// the round bound, n·(RoundBound+1). A build's canonical run and every
// election allocate it, and the build arena's and each shard worker's
// simulator keep it after the run, so the round limit alone would let a
// few hundred nodes hold hundreds of MiB. 16 MiB matches the largest plan
// array MaxRoundBound allows (16 bytes per local round).
const MaxCodeMatrix = 16 << 20

// CheckCodeMatrix rejects, with ErrRoundOverflow, a canonical DRIP of span
// sigma and the given lists whose election on n nodes would record into a
// code matrix of more than MaxCodeMatrix bytes, or whose round bound
// exceeds MaxRoundBound. It is pure arithmetic over the lists: every build,
// rebuild and artifact load runs it before any round plan exists.
func CheckCodeMatrix(n, sigma int, lists []core.List) error {
	bound, err := roundBound(sigma, lists)
	if err != nil {
		return err
	}
	if n > MaxCodeMatrix/(bound+1) {
		return fmt.Errorf("%w: %d nodes over a round bound of %d need a %d-byte code matrix, over the %d-byte budget",
			ErrRoundOverflow, n, bound, n*(bound+1), MaxCodeMatrix)
	}
	return nil
}

// newSkeleton validates the span and the lists and builds the protocol with
// its phase boundaries but without a compiled table; the callers decide
// whether the table is compiled from the lists (FromLists) or adopted from a
// digest-verified artifact (FromCompiled).
func newSkeleton(sigma int, lists []core.List) (*DRIP, error) {
	return newSkeletonInto(nil, sigma, lists)
}

// newSkeletonInto is newSkeleton recycling prev's struct and phase-end
// array; prev's compiled table (if any) is left in place for
// compileTableInto to recycle in turn. Validation happens before prev is
// touched, so a rejected rebuild leaves prev intact.
func newSkeletonInto(prev *DRIP, sigma int, lists []core.List) (*DRIP, error) {
	if sigma < 0 {
		return nil, fmt.Errorf("canonical: negative span %d", sigma)
	}
	if len(lists) == 0 {
		return nil, fmt.Errorf("canonical: no lists")
	}
	if !lists[len(lists)-1].Terminate {
		return nil, fmt.Errorf("canonical: final list is not the terminate list")
	}
	for j, l := range lists {
		if !l.Terminate && len(l.Entries) == 0 {
			return nil, fmt.Errorf("canonical: list L_%d has no entries", j+1)
		}
	}
	if _, err := roundBound(sigma, lists); err != nil {
		return nil, err
	}
	d := prev
	if d == nil {
		d = &DRIP{}
	}
	d.Sigma = sigma
	d.Lists = lists
	if cap(d.phaseEnds) < len(lists)+1 {
		d.phaseEnds = make([]int, len(lists)+1)
	} else {
		d.phaseEnds = d.phaseEnds[:len(lists)+1]
		d.phaseEnds[0] = 0
	}
	blockLen := 2*sigma + 1
	for j := 1; j <= len(lists); j++ {
		if lists[j-1].Terminate {
			d.phaseEnds[j] = d.phaseEnds[j-1] + 1
		} else {
			d.phaseEnds[j] = d.phaseEnds[j-1] + lists[j-1].NumClasses()*blockLen + sigma
		}
	}
	return d, nil
}

// roundBound returns the election round bound σ + TerminationRound + 1 of
// the canonical DRIP of span sigma and the given lists, and rejects one
// that exceeds MaxRoundBound. Every build, artifact load, snapshot restore
// and journal replay runs it in newSkeletonInto, before any phase end is
// derived or any round plan allocated. The bound is summed phase by phase
// and checked after each, so no intermediate value exceeds a few times
// MaxRoundBound and the arithmetic cannot overflow, however large the span.
func roundBound(sigma int, lists []core.List) (int, error) {
	if sigma < 0 {
		return 0, fmt.Errorf("canonical: negative span %d", sigma)
	}
	if sigma >= MaxRoundBound {
		return 0, fmt.Errorf("%w: span %d alone reaches the round limit %d", ErrRoundOverflow, sigma, MaxRoundBound)
	}
	blockLen := 2*sigma + 1
	bound := sigma + 1 // σ + r_j + 1 after phase j
	for j, l := range lists {
		step := 1
		if !l.Terminate {
			if l.NumClasses() > MaxRoundBound/blockLen {
				return 0, fmt.Errorf("%w: phase %d of span %d", ErrRoundOverflow, j+1, sigma)
			}
			step = l.NumClasses()*blockLen + sigma
		}
		if bound += step; bound > MaxRoundBound {
			return 0, fmt.Errorf("%w: round bound of span %d passes %d in phase %d", ErrRoundOverflow, sigma, MaxRoundBound, j+1)
		}
	}
	return bound, nil
}

// FromLists builds an executable canonical DRIP directly from a span and the
// lists L_1..L_jterm (the last list must be the terminate list). It is the
// deserialization counterpart of New.
func FromLists(sigma int, lists []core.List) (*DRIP, error) {
	d, err := newSkeleton(sigma, lists)
	if err != nil {
		return nil, err
	}
	d.table = d.compileTable()
	return d, nil
}

// ArtifactDigest returns the 64-bit FNV-1a hash recorded in compiled
// artifacts: it folds the span, the full content of the lists L_1..L_jterm
// (terminate flags, entry old-classes and label triples) and the phase
// table's own content digest. Binding the blueprint and the table into one
// hash means a digest recorded at compile time — when the table was
// genuinely compiled from those lists — can only verify against the same
// (blueprint, table) pair: a table left stale while the lists were
// regenerated fails the check even when the table alone is internally
// consistent.
func ArtifactDigest(sigma int, lists []core.List, pt *PhaseTable) uint64 {
	h := uint64(fnv.Offset64)
	h = fnv.Mix64(h, uint64(int64(sigma)))
	h = fnv.Mix64(h, uint64(len(lists)))
	for _, l := range lists {
		if l.Terminate {
			h = fnv.Mix64(h, 1)
		} else {
			h = fnv.Mix64(h, 2)
		}
		h = fnv.Mix64(h, uint64(len(l.Entries)))
		for _, e := range l.Entries {
			h = fnv.Mix64(h, uint64(int64(e.OldClass)))
			h = fnv.Mix64(h, uint64(len(e.Label)))
			for _, t := range e.Label {
				h = fnv.Mix64(h, uint64(int64(t.Class)))
				multi := uint64(0)
				if t.Multi {
					multi = 1
				}
				h = fnv.Mix64(h, uint64(int64(t.Round))<<1|multi)
			}
		}
	}
	return fnv.Mix64(h, pt.Digest())
}

// FromCompiled rebuilds an executable DRIP from its blueprint parts plus an
// embedded compiled phase table carrying an artifact digest. When the
// digest matches ArtifactDigest over the blueprint and the table (and the
// table's shape matches the blueprint's phase structure), the table is
// adopted directly and the recompilation from the lists — the dominant cost
// of the cold artifact-load path — is skipped; the returned fast flag
// reports that. On any mismatch (stale digest, stale table under
// regenerated lists, wrong shape) it falls back to the full
// recompile-and-compare validation of InstallTable, so a table that
// disagrees with the lists is still rejected rather than silently executing
// a different protocol.
//
// The digest is an integrity check for trusted deployment paths; the choice
// to honor it belongs to the loader (election.LoadTrusted), never to the
// artifact.
func FromCompiled(sigma int, lists []core.List, pt *PhaseTable, digest uint64) (*DRIP, bool, error) {
	if pt == nil {
		return nil, false, fmt.Errorf("canonical: nil phase table")
	}
	// Blueprint problems surface as-is; only table-origin failures carry the
	// "embedded phase table rejected" context, so operators debug the right
	// part of the artifact.
	d, err := newSkeleton(sigma, lists)
	if err != nil {
		return nil, false, err
	}
	if err := pt.Validate(); err != nil {
		return nil, false, fmt.Errorf("canonical: embedded phase table rejected: %w", err)
	}
	if pt.Sigma == sigma &&
		len(pt.Plans) == d.TerminationRound() &&
		len(pt.Matches) == len(lists)-1 &&
		ArtifactDigest(sigma, lists, pt) == digest {
		d.table = pt.clone()
		return d, true, nil
	}
	d.table = d.compileTable()
	if err := d.InstallTable(pt); err != nil {
		return nil, false, fmt.Errorf("canonical: embedded phase table rejected: %w", err)
	}
	return d, false, nil
}

// Blueprint returns the serializable description of the protocol.
func (d *DRIP) Blueprint() Blueprint {
	return Blueprint{Sigma: d.Sigma, Lists: d.Lists}
}

// MarshalJSON encodes the protocol as its blueprint.
func (d *DRIP) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.Blueprint())
}

// UnmarshalBlueprint decodes a blueprint and rebuilds the executable
// protocol.
func UnmarshalBlueprint(data []byte) (*DRIP, error) {
	var bp Blueprint
	if err := json.Unmarshal(data, &bp); err != nil {
		return nil, fmt.Errorf("canonical: decoding blueprint: %w", err)
	}
	return FromLists(bp.Sigma, bp.Lists)
}
