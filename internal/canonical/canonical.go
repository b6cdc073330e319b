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
// flat expected-history rows), which is what DRIP.Act executes and what
// compiled election artifacts embed; ArtifactDigest binds a blueprint and
// its table together so trusted loaders (election.LoadTrusted, the service
// snapshot restore) can adopt an embedded table without recompiling. The
// paper-faithful matcher survives as ActReference and remains the
// specification in the property tests.
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

	// table is the compiled phase table; Act executes through it. The
	// reference matching procedure remains available as ActReference and the
	// property tests keep the two observationally identical.
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

// Act implements drip.Protocol. It executes through the compiled phase
// table: allocation-free array lookups instead of the reference matching
// procedure (which survives as ActReference).
func (d *DRIP) Act(h history.Vector) drip.Action {
	return d.table.Act(h)
}

// ActCodes implements radio.CodedProtocol: Act on a coded history, through
// the compiled phase table.
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

// InstallTable installs a deserialized phase table as the protocol's
// executing table, so artifacts that ship a table really execute it. The
// table must validate structurally and be identical to the one compiled
// from the protocol's own lists — a valid-but-different table would
// silently execute a different protocol than the lists promise, breaking
// the history-match decision derived from them.
func (d *DRIP) InstallTable(pt *PhaseTable) error {
	if pt == nil {
		return fmt.Errorf("canonical: nil phase table")
	}
	if err := pt.Validate(); err != nil {
		return err
	}
	if !pt.Equal(d.table) {
		return fmt.Errorf("canonical: phase table does not match the protocol's lists")
	}
	// Install a private copy: the caller keeps ownership of pt (artifacts
	// are routinely re-decoded or mutated), and post-install tampering must
	// not flow into a validated, executing protocol.
	d.table = pt.clone()
	return nil
}

// ActReference is the paper-faithful executable form of the matching
// procedure of Section 3.3.1, re-deriving the phase, block and transmission
// class from the lists on every call. It is the specification the compiled
// phase table is tested against.
func (d *DRIP) ActReference(h history.Vector) drip.Action {
	i := len(h) // current local round
	j := d.phaseOf(i)
	list := d.Lists[j-1]
	if list.Terminate {
		return drip.TerminateAction()
	}
	blockLen := 2*d.Sigma + 1
	offset := i - d.phaseEnds[j-1]
	if offset > list.NumClasses()*blockLen {
		// The σ listening rounds at the end of the phase.
		return drip.ListenAction()
	}
	block := (offset-1)/blockLen + 1
	round := (offset-1)%blockLen + 1
	if round != d.Sigma+1 {
		return drip.ListenAction()
	}
	tb := d.TransmissionBlock(h, j)
	if tb != 0 && block == tb {
		return drip.TransmitAction(Message)
	}
	return drip.ListenAction()
}

// TransmissionBlock returns the transmission block (equivalence class) the
// node with history h uses in phase j, computed by the matching procedure of
// Section 3.3.1: tBlock starts at 1 and is re-derived at each phase boundary
// by comparing the previous phase's history with the entries of L_j. It
// returns 0 if no entry matches, which can only happen when the protocol is
// executed on a configuration other than the one it was built for; such a
// node never transmits again.
func (d *DRIP) TransmissionBlock(h history.Vector, j int) int {
	tb := 1
	for jj := 2; jj <= j; jj++ {
		tb = d.matchEntry(h, jj, tb)
		if tb == 0 {
			return 0
		}
	}
	return tb
}

// matchEntry finds the index k of the entry of L_jj that matches the node's
// history during phase P_{jj-1}, given that the node transmitted in block
// prevTB of that phase. It returns 0 if no entry matches.
func (d *DRIP) matchEntry(h history.Vector, jj, prevTB int) int {
	cur := d.Lists[jj-1]  // L_jj
	prev := d.Lists[jj-2] // L_{jj-1}
	if cur.Terminate || prev.Terminate {
		return 0
	}
	blockLen := 2*d.Sigma + 1
	prevStart := d.phaseEnds[jj-2] // r_{jj-2}

	for k := 1; k <= len(cur.Entries); k++ {
		entry := cur.Entries[k-1]
		if entry.OldClass != prevTB {
			continue
		}
		if d.historyMatchesLabel(h, prevStart, prev.NumClasses(), blockLen, entry.Label) {
			return k
		}
	}
	return 0
}

// historyMatchesLabel checks the per-round conditions of the matching
// procedure: for every round t = prevStart + (a-1)*blockLen + b of the
// previous phase's transmission blocks, the history entry at t must agree
// with the presence/absence and multiplicity of the triple (a, b, ·) in the
// label.
func (d *DRIP) historyMatchesLabel(h history.Vector, prevStart, numBlocks, blockLen int, label core.Label) bool {
	for a := 1; a <= numBlocks; a++ {
		for b := 1; b <= blockLen; b++ {
			t := prevStart + (a-1)*blockLen + b
			if t >= len(h) {
				return false
			}
			triple, found := label.Find(a, b)
			switch h[t].Kind {
			case history.Message:
				if h[t].Msg != Message || !found || triple.Multi {
					return false
				}
			case history.Noise:
				if !found || !triple.Multi {
					return false
				}
			case history.Silence:
				if found {
					return false
				}
			}
		}
	}
	return true
}
