package canonical

import (
	"anonradio/internal/core"
	"anonradio/internal/drip"
	"anonradio/internal/history"
)

// This file holds the paper-faithful matching procedure of Section 3.3.1 in
// its executable form. Only tests use it: it is the oracle the compiled
// PhaseTable is checked against.

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
