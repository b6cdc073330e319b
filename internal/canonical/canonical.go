// Package canonical implements the canonical DRIP D_G of Section 3.3.1: the
// distributed protocol, derived from a Classifier run on a configuration G,
// that is installed identically at every (anonymous) node and that solves
// leader election on G whenever G is feasible (Theorem 3.15).
//
// The protocol is organised in phases. Phase P_0 is the wake-up round. For
// j >= 1, phase P_j either instructs the node to terminate (when the list
// L_j is the terminate list) or consists of numClasses_j transmission blocks
// of 2σ+1 rounds each followed by σ listening rounds. Within a phase a node
// transmits exactly once: in the (σ+1)-th round of the block whose index
// equals the equivalence class the node belongs to at the start of the
// phase. The node determines that class on its own by matching its history
// of the previous phase against the per-class entries of L_j, which are
// hard-coded into the protocol.
//
// The protocol is compiled once into a PhaseTable (per-round plans plus
// flat expected-history rows), which is what DRIP.ActCodes executes. The
// table is derived from σ and the lists alone, so an installable artifact
// (Blueprint) carries only those, and every load compiles the table from
// them (FromLists). The paper-faithful matcher (ActReference, in
// reference_test.go) is the specification the property tests hold the
// table to.
package canonical

import (
	"fmt"
	"slices"

	"anonradio/internal/core"
	"anonradio/internal/drip"
	"anonradio/internal/history"
)

// Message is the payload transmitted by the canonical DRIP (the string ‘1’ of
// the paper).
const Message = "1"

// DRIP is the executable canonical protocol for one configuration. It is a
// pure function of the node's history, so a single value can be shared by
// all nodes (and by concurrently running goroutines).
type DRIP struct {
	// Sigma is the span σ of the configuration the protocol was built for.
	Sigma int
	// Lists holds L_1 .. L_jterm as produced by the Classifier.
	Lists []core.List

	// phaseEnds[j] is r_j, the local round in which phase P_j ends;
	// phaseEnds[0] = r_0 = 0.
	phaseEnds []int

	// table is the compiled phase table; ActCodes executes it, and so does
	// Act after coding its history. The property tests keep it
	// observationally identical to the reference matching procedure
	// ActReference.
	table *PhaseTable
}

// New builds the canonical DRIP from a Classifier report. The report may
// describe an infeasible configuration: the protocol is still well defined
// (every node terminates after the last phase), it just cannot elect a
// leader.
func New(report *core.Report) (*DRIP, error) {
	return NewInto(nil, report)
}

// NewInto is New recycling a previous protocol's memory — the DRIP struct,
// its phase-end array and its compiled phase table (plans, match rows,
// expectation bytes). The rebuilt protocol is identical to a freshly built
// one; only the provenance of its memory changes. prev must not be used
// after the call; prev == nil is exactly New.
func NewInto(prev *DRIP, report *core.Report) (*DRIP, error) {
	if report == nil {
		return nil, fmt.Errorf("canonical: nil report")
	}
	if len(report.Lists) == 0 {
		return nil, fmt.Errorf("canonical: report has no lists")
	}
	if err := CheckCodeMatrix(report.Config.N(), report.Config.Span(), report.Lists); err != nil {
		return nil, err
	}
	d, err := newSkeletonInto(prev, report.Config.Span(), report.Lists)
	if err != nil {
		return nil, err
	}
	d.table = d.compileTableInto(d.table)
	return d, nil
}

// Phases returns the number of phases P_1 .. P_jterm (including the final
// terminate phase).
func (d *DRIP) Phases() int { return len(d.Lists) }

// PhaseEnd returns r_j, the local round in which phase P_j ends (r_0 = 0).
func (d *DRIP) PhaseEnd(j int) int { return d.phaseEnds[j] }

// TerminationRound returns the local round in which every node terminates
// (r_{jterm-1} + 1 = r_{jterm}).
func (d *DRIP) TerminationRound() int { return d.phaseEnds[len(d.phaseEnds)-1] }

// phaseOf returns the phase number j such that local round i belongs to
// phase P_j. Rounds beyond the final phase map to the final phase.
func (d *DRIP) phaseOf(i int) int {
	for j := 1; j < len(d.phaseEnds); j++ {
		if i <= d.phaseEnds[j] {
			return j
		}
	}
	return len(d.phaseEnds) - 1
}

// Act implements drip.Protocol: it codes h and executes ActCodes. The
// simulator records the protocol's histories in codes and calls ActCodes
// directly; Act serves callers that hold a history vector.
func (d *DRIP) Act(h history.Vector) drip.Action {
	return d.table.ActCodes(h.AppendCodes(nil, Message))
}

// ActCodes implements radio.CodedProtocol: it executes the compiled phase
// table on a coded history, allocation-free array lookups and byte
// comparisons instead of the reference matching procedure.
func (d *DRIP) ActCodes(h []byte) drip.Action {
	return d.table.ActCodes(h)
}

// CodedMessage implements radio.CodedProtocol: the protocol transmits only
// Message.
func (d *DRIP) CodedMessage() string { return Message }

// ListenUntil returns the first local round r >= i in which Act may return
// anything but Listen, whatever the history: the next transmit slot (the
// σ+1 round of a block) or terminate round. It lets the radio simulator
// skip the protocol's unconditional listen rounds. The answer is block
// arithmetic inside the phase of round i, found by binary search over the
// phase ends, so it agrees with a scan of the compiled round plans without
// walking them. Histories always hold the wake-up entry, so r is at least 1.
func (d *DRIP) ListenUntil(i int) int {
	i = max(i, 1)
	j, _ := slices.BinarySearch(d.phaseEnds, i)
	if j == len(d.phaseEnds) || d.Lists[j-1].Terminate {
		// Every round past the final phase terminates too.
		return i
	}
	blockLen := 2*d.Sigma + 1
	start := d.phaseEnds[j-1]
	if b := (i-start+d.Sigma-1)/blockLen + 1; b <= d.Lists[j-1].NumClasses() {
		return start + (b-1)*blockLen + d.Sigma + 1
	}
	// Past the last slot: the next phase's first slot or terminate round.
	if d.Lists[j].Terminate {
		return d.phaseEnds[j] + 1
	}
	return d.phaseEnds[j] + d.Sigma + 1
}

// Table returns the compiled phase table of the protocol.
func (d *DRIP) Table() *PhaseTable { return d.table }
