package canonical

import (
	"errors"
	"math"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/graph"
	"anonradio/internal/history"
)

// TestPropertyActCodesMatchesAct checks the coded Act against the vector Act
// on every prefix of every node's canonical history, across random feasible
// configurations. It then edits each node's history at the first and the
// last position of every phase-match window — to each other code, and to a
// foreign message — and compares both at every transmit slot after the
// window: a row compared one position short, or a foreign message read as
// the canonical one, would change the coded answer only.
func TestPropertyActCodesMatchesAct(t *testing.T) {
	variants := []history.Entry{history.Silent(), history.Received(Message), history.Collision(), history.Received("x")}
	checked := 0
	for seed := int64(0); checked < 40; seed++ {
		d, res, _ := tableDRIP(t, seed, 2+int(seed%10), 1+int(seed%4))
		if d == nil {
			continue
		}
		checked++
		pt := d.Table()
		for v, h := range res.Histories {
			codes := h.AppendCodes(nil, Message)
			if !history.AppendDecoded(nil, codes, Message).Equal(h) {
				t.Fatalf("seed %d node %d: codes do not round-trip", seed, v)
			}
			for i := 0; i <= len(h); i++ {
				if got, want := d.ActCodes(codes[:i]), pt.Act(h[:i]); got != want || d.Act(h[:i]) != want {
					t.Fatalf("seed %d node %d prefix %d: ActCodes %v, Act %v", seed, v, i, got, want)
				}
			}
			for _, pm := range pt.Matches {
				if len(pm.Rows) == 0 {
					continue
				}
				window := len(pm.Rows[0].Expect)
				for _, pos := range []int{pm.Start, pm.Start + window - 1} {
					for _, e := range variants {
						edited := append(history.Vector(nil), h...)
						edited[pos] = e
						editedCodes := edited.AppendCodes(nil, Message)
						for i := pm.Start + window; i <= len(h); i++ {
							if pt.plan(i).Block <= 0 {
								continue
							}
							if got, want := pt.ActCodes(editedCodes[:i]), pt.Act(edited[:i]); got != want {
								t.Fatalf("seed %d node %d, entry %d set to %s, prefix %d: ActCodes %v, Act %v", seed, v, pos, e, i, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestRoundOverflowRejected pins the huge-tag fix: spans whose block length,
// phase ends or election round bound overflow int are rejected with
// ErrRoundOverflow by every constructor, promptly, instead of panicking in
// the table compile or wrapping around into a runaway simulation.
func TestRoundOverflowRejected(t *testing.T) {
	for _, tag := range []int{1 << 62, math.MaxInt, 6148914691236517205} {
		start := time.Now()
		rep, err := core.Classify(config.MustNew(graph.Path(2), []int{0, tag}))
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		if _, err := New(rep); !errors.Is(err, ErrRoundOverflow) {
			t.Fatalf("tag %d: New returned %v, want ErrRoundOverflow", tag, err)
		}
		if _, err := NewInto(&DRIP{}, rep); !errors.Is(err, ErrRoundOverflow) {
			t.Fatalf("tag %d: NewInto returned %v, want ErrRoundOverflow", tag, err)
		}
		if _, err := FromLists(tag, rep.Lists); !errors.Is(err, ErrRoundOverflow) {
			t.Fatalf("tag %d: FromLists returned %v, want ErrRoundOverflow", tag, err)
		}
		if _, _, err := FromCompiled(tag, rep.Lists, &PhaseTable{Sigma: tag}, 0); !errors.Is(err, ErrRoundOverflow) {
			t.Fatalf("tag %d: FromCompiled returned %v, want ErrRoundOverflow", tag, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("tag %d: rejection took %v", tag, elapsed)
		}
	}
	// A span whose arithmetic fits passes, however large.
	if err := checkRounds(1<<40, []core.List{{Entries: make([]core.ListEntry, 2)}, {Terminate: true}}); err != nil {
		t.Fatalf("span 2^40: %v", err)
	}
}
