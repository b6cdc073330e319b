package canonical

import (
	"bytes"

	"anonradio/internal/drip"
	"anonradio/internal/history"
)

// This file compiles a canonical DRIP into a PhaseTable: a flat, precomputed
// execution plan that makes ActCodes allocation-free and removes the
// per-call triple searches of the reference matching procedure.
//
// The reference Act re-derives everything from the lists on every call: it
// scans the phase ends to locate the current phase, divides the offset into
// blocks, and matches the previous phase's history against list entries with
// a Label.Find per round. The compiled form precomputes
//
//   - one RoundPlan per local round (phase number, and whether the round is
//     a listen round, a terminate round, or the σ+1 transmit slot of a
//     specific block), and
//   - one expected-history row per list entry (the exact entry code every
//     history position of the previous phase must carry for the entry to
//     match),
//
// so executing the protocol is array indexing plus byte comparisons. The
// table is built once in FromLists; ActCodes consults it on every call and
// the property tests check it is observationally identical to the reference
// implementation on randomized configurations.

// RoundPlan describes one local round i of the compiled protocol.
type RoundPlan struct {
	// Phase is the phase P_j the round belongs to.
	Phase int `json:"phase"`
	// Block is 0 for a listen round, -1 for a terminate round, and b > 0
	// when the round is the σ+1 transmit slot of block b: the node transmits
	// iff its transmission block for the phase equals b.
	Block int `json:"block"`
}

// MatchRow is the compiled form of one entry of a list L_j: the per-round
// history expectations of the matching procedure, plus the transmission
// block the matching node used in the previous phase.
type MatchRow struct {
	// OldClass is the transmission block of the previous phase that this
	// entry's class descended from; a row is only compared when the node
	// transmitted in that block.
	OldClass int `json:"old_class"`
	// Expect[t] is the required entry code (history.CodeSilence,
	// CodeMessage for the canonical message "1" from a single transmitter,
	// or CodeNoise) at history position Start+t, where Start is the
	// PhaseMatch's first compared position, so a row matches a coded
	// history by one byte comparison.
	Expect []byte `json:"expect"`
}

// PhaseMatch holds the compiled matching data of one phase boundary: how a
// node derives its class (= transmission block) for phase j from its history
// during phase j-1.
type PhaseMatch struct {
	// Start is the first history position compared: r_{j-2}+1, the first
	// round of the previous phase's transmission blocks.
	Start int `json:"start"`
	// Rows[k-1] compiles entry k of L_j. Empty when the boundary cannot be
	// crossed (a terminate list on either side), in which case matching
	// yields 0.
	Rows []MatchRow `json:"rows"`
}

// PhaseTable is the compiled execution plan of a canonical DRIP. It is a
// pure lookup structure, safe for concurrent use by every node of a
// simulation, derived from the lists alone: artifacts carry the lists, and
// every loader compiles the table from them. Its JSON tags remain because
// artifacts written by earlier releases embed a table, which a load reads
// and compares (Equal) with the compiled one.
type PhaseTable struct {
	// Sigma is the span σ the protocol was built for.
	Sigma int `json:"sigma"`
	// Plans[i-1] is the plan of local round i, for i in 1..TerminationRound.
	Plans []RoundPlan `json:"plans"`
	// Matches[j-2] is the matching data of the boundary into phase j, for
	// j in 2..numPhases.
	Matches []PhaseMatch `json:"matches"`
}

// compileTableInto builds the phase table of a DRIP whose Lists and
// phaseEnds are already validated, recycling a previous table's memory: the
// struct, the plan array, and every match row with its expectation bytes.
// The compiled content is identical to a fresh compile (prev == nil).
func (d *DRIP) compileTableInto(prev *PhaseTable) *PhaseTable {
	blockLen := 2*d.Sigma + 1
	pt := prev
	if pt == nil {
		pt = &PhaseTable{}
	}
	pt.Sigma = d.Sigma
	// Truncating Matches to zero leaves the previous rows in the spare
	// capacity; growth within capacity below recovers them slot by slot.
	pt.Matches = pt.Matches[:0]

	// Round plans: replay the reference Act's round arithmetic once per
	// local round instead of once per call.
	term := d.TerminationRound()
	if cap(pt.Plans) < term {
		pt.Plans = make([]RoundPlan, term)
	} else {
		pt.Plans = pt.Plans[:term]
	}
	for i := 1; i <= term; i++ {
		j := d.phaseOf(i)
		plan := RoundPlan{Phase: j}
		list := d.Lists[j-1]
		switch {
		case list.Terminate:
			plan.Block = -1
		default:
			offset := i - d.phaseEnds[j-1]
			if offset <= list.NumClasses()*blockLen && (offset-1)%blockLen+1 == d.Sigma+1 {
				plan.Block = (offset-1)/blockLen + 1
			}
		}
		pt.Plans[i-1] = plan
	}

	// Matching rows: expand every list entry's label into the exact
	// per-round expectations of historyMatchesLabel.
	for jj := 2; jj <= len(d.Lists); jj++ {
		cur := d.Lists[jj-1]      // L_jj
		prevList := d.Lists[jj-2] // L_{jj-1}
		if len(pt.Matches) < cap(pt.Matches) {
			pt.Matches = pt.Matches[:len(pt.Matches)+1]
		} else {
			pt.Matches = append(pt.Matches, PhaseMatch{})
		}
		pm := &pt.Matches[len(pt.Matches)-1]
		pm.Start = d.phaseEnds[jj-2] + 1
		if cur.Terminate || prevList.Terminate {
			pm.Rows = nil
			continue
		}
		window := prevList.NumClasses() * blockLen
		rows := pm.Rows
		if cap(rows) < len(cur.Entries) {
			grown := make([]MatchRow, len(cur.Entries))
			copy(grown, rows[:cap(rows)]) // keep recycled Expect buffers
			rows = grown
		} else {
			rows = rows[:len(cur.Entries)]
		}
		for k, entry := range cur.Entries {
			expect := rows[k].Expect
			if cap(expect) < window {
				expect = make([]byte, window)
			} else {
				expect = expect[:window]
				clear(expect)
			}
			for a := 1; a <= prevList.NumClasses(); a++ {
				for b := 1; b <= blockLen; b++ {
					pos := (a-1)*blockLen + b - 1
					if triple, found := entry.Label.Find(a, b); found {
						if triple.Multi {
							expect[pos] = history.CodeNoise
						} else {
							expect[pos] = history.CodeMessage
						}
					}
				}
			}
			rows[k] = MatchRow{OldClass: entry.OldClass, Expect: expect}
		}
		pm.Rows = rows
	}
	return pt
}

// ActCodes executes the compiled protocol on a coded history (see
// CodedMessage): the phase-table twin of the reference
// (*DRIP).ActReference, whose rows match by one byte comparison each. It
// performs no heap allocations.
func (pt *PhaseTable) ActCodes(h []byte) drip.Action {
	plan := pt.plan(len(h))
	if plan.Block <= 0 {
		return planned(plan)
	}
	if pt.transmissionBlock(h, plan.Phase) == plan.Block {
		return drip.TransmitAction(Message)
	}
	return drip.ListenAction()
}

// CodedMessage names the protocol's one message, Message: the entry code
// history.CodeMessage stands for it in the histories ActCodes reads.
func (pt *PhaseTable) CodedMessage() string { return Message }

// plan returns the plan of local round i. The empty history has none: the
// protocol contract guarantees at least the wake-up entry H[0], but the
// reference matcher answers it with listen and the compiled form must agree
// observationally. Rounds beyond the final phase map to the final phase,
// which is always the terminate phase.
func (pt *PhaseTable) plan(i int) RoundPlan {
	switch {
	case i == 0:
		return RoundPlan{}
	case i > len(pt.Plans):
		return RoundPlan{Block: -1}
	}
	return pt.Plans[i-1]
}

// planned returns the action of a listen (Block 0) or terminate (Block -1)
// plan.
func planned(plan RoundPlan) drip.Action {
	if plan.Block < 0 {
		return drip.TerminateAction()
	}
	return drip.ListenAction()
}

// transmissionBlock returns the transmission block the node with coded
// history h uses in phase j (0 when no entry matches); it is the compiled
// counterpart of the reference (*DRIP).TransmissionBlock.
func (pt *PhaseTable) transmissionBlock(h []byte, j int) int {
	tb := 1
	for jj := 2; jj <= j && tb != 0; jj++ {
		tb = pt.Matches[jj-2].match(h, tb)
	}
	return tb
}

// match finds the 1-based row whose OldClass equals prevTB and whose
// expectations the coded history satisfies, or 0. The reference procedure
// fails a row as soon as a compared round lies beyond the history;
// positions are contiguous, so one length check replaces the per-round
// bound checks.
func (pm *PhaseMatch) match(h []byte, prevTB int) int {
	for k := range pm.Rows {
		row := &pm.Rows[k]
		if row.OldClass != prevTB {
			continue
		}
		if end := pm.Start + len(row.Expect); end <= len(h) && bytes.Equal(h[pm.Start:end], row.Expect) {
			return k + 1
		}
	}
	return 0
}

// Equal reports whether two phase tables are identical. A load uses it to
// check the table an earlier release embedded in an artifact against the
// one compiled from the artifact's lists.
func (pt *PhaseTable) Equal(o *PhaseTable) bool {
	if pt == nil || o == nil {
		return pt == o
	}
	if pt.Sigma != o.Sigma || len(pt.Plans) != len(o.Plans) || len(pt.Matches) != len(o.Matches) {
		return false
	}
	for i := range pt.Plans {
		if pt.Plans[i] != o.Plans[i] {
			return false
		}
	}
	for i := range pt.Matches {
		a, b := &pt.Matches[i], &o.Matches[i]
		if a.Start != b.Start || len(a.Rows) != len(b.Rows) {
			return false
		}
		for k := range a.Rows {
			if a.Rows[k].OldClass != b.Rows[k].OldClass || string(a.Rows[k].Expect) != string(b.Rows[k].Expect) {
				return false
			}
		}
	}
	return true
}
