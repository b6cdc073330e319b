package canonical

import (
	"encoding/json"
	"errors"
	"fmt"

	"anonradio/internal/core"
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

// newSkeletonInto validates the span and the lists and builds the protocol
// with its phase boundaries but without a compiled table, recycling prev's
// struct and phase-end array; prev's compiled table (if any) is left in
// place for compileTableInto to recycle in turn. Validation happens before
// prev is touched, so a rejected rebuild leaves prev intact.
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
// lists L_1..L_jterm (the last list must be the terminate list), compiling
// its phase table from the lists. It is the deserialization counterpart of
// New, and the only way an artifact's protocol is rebuilt.
func FromLists(sigma int, lists []core.List) (*DRIP, error) {
	d, err := newSkeletonInto(nil, sigma, lists)
	if err != nil {
		return nil, err
	}
	d.table = d.compileTableInto(nil)
	return d, nil
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
