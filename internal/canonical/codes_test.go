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

// TestPropertyActCodesMatchesAct checks the coded Act against the reference
// matcher on every prefix of every node's canonical history, across random
// feasible configurations, and DRIP.Act, which codes its vector, against
// both. It then edits each node's history at the first and the last
// position of every phase-match window — to each other code, and to a
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
				if got, want := d.ActCodes(codes[:i]), d.ActReference(h[:i]); got != want || d.Act(h[:i]) != want {
					t.Fatalf("seed %d node %d prefix %d: ActCodes %v, reference %v", seed, v, i, got, want)
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
							if got, want := pt.ActCodes(editedCodes[:i]), d.ActReference(edited[:i]); got != want {
								t.Fatalf("seed %d node %d, entry %d set to %s, prefix %d: ActCodes %v, reference %v", seed, v, pos, e, i, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestRoundOverflowRejected pins the huge-tag fix: spans whose block length,
// phase ends or election round bound would overflow int are rejected with
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
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("tag %d: rejection took %v", tag, elapsed)
		}
	}
}

// TestRoundLimitRejected pins the round guard: a 2-node path with tags
// {0, σ} has the round bound 4σ+3, so σ = 10⁶ and σ = 10⁹ must be
// rejected with ErrRoundOverflow by the pure check and then by every
// constructor. The pure check runs first, and the test stops if it passes a
// span: a constructor would go on to allocate 16 bytes per local round,
// about 48 GB at σ = 10⁹. At the limit's edge, the largest span whose bound
// fits passes and the next is rejected.
func TestRoundLimitRejected(t *testing.T) {
	for _, tag := range []int{1_000_000, 1_000_000_000} {
		rep, err := core.Classify(config.MustNew(graph.Path(2), []int{0, tag}))
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		if _, err := roundBound(tag, rep.Lists); !errors.Is(err, ErrRoundOverflow) {
			t.Fatalf("tag %d: the round check returned %v, want ErrRoundOverflow; no constructor is called", tag, err)
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
	}
	lists := []core.List{{Entries: make([]core.ListEntry, 1)}, {Terminate: true}}
	edge := (MaxRoundBound - 3) / 4 // 4σ+3 <= MaxRoundBound
	if bound, err := roundBound(edge, lists); err != nil || bound != 4*edge+3 {
		t.Fatalf("span %d: round bound %d, %v; want %d", edge, bound, err, 4*edge+3)
	}
	if _, err := roundBound(edge+1, lists); !errors.Is(err, ErrRoundOverflow) {
		t.Fatalf("span %d, round bound %d: %v, want ErrRoundOverflow", edge+1, 4*edge+7, err)
	}
}

// TestCodeMatrixBudget pins the code-matrix guard at its edge: a protocol
// whose n·(RoundBound+1) is exactly MaxCodeMatrix passes, one more node is
// rejected with ErrRoundOverflow, and so is a span the round guard alone
// rejects. New and NewInto reject a configuration over the budget before
// touching the previous protocol.
func TestCodeMatrixBudget(t *testing.T) {
	lists := []core.List{{Entries: make([]core.ListEntry, 1)}, {Terminate: true}}
	const sigma = 4095 // round bound 4σ+3, so RoundBound+1 = 2¹⁴
	n := MaxCodeMatrix / (4*sigma + 4)
	if err := CheckCodeMatrix(n, sigma, lists); err != nil {
		t.Fatalf("%d nodes at the budget: %v", n, err)
	}
	if err := CheckCodeMatrix(n+1, sigma, lists); !errors.Is(err, ErrRoundOverflow) {
		t.Fatalf("%d nodes over the budget: %v, want ErrRoundOverflow", n+1, err)
	}
	if err := CheckCodeMatrix(2, MaxRoundBound, lists); !errors.Is(err, ErrRoundOverflow) {
		t.Fatalf("span past the round limit: %v, want ErrRoundOverflow", err)
	}
	// An artifact's span is outside input: a negative one must be an
	// error, not a round bound of -1 that divides the budget by zero.
	if err := CheckCodeMatrix(2, -3, lists[1:]); err == nil {
		t.Fatal("a negative span passed the code-matrix check")
	}

	// The 64-node path of span 25,200 the CI backpressure probe registers
	// needs a 6.15 MiB matrix and is admitted.
	ci, err := core.ClassifyTurbo(config.StaggeredPath(64, 400), core.ClassifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCodeMatrix(64, ci.Config.Span(), ci.Lists); err != nil {
		t.Fatalf("the CI backpressure path: %v", err)
	}
	rep, err := core.ClassifyTurbo(config.StaggeredPath(400, 600), core.ClassifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(rep); !errors.Is(err, ErrRoundOverflow) {
		t.Fatalf("a 400-node path of span %d: New returned %v, want ErrRoundOverflow", rep.Config.Span(), err)
	}
	small, err := core.Classify(config.StaggeredClique(4))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	rounds := prev.TerminationRound()
	if _, err := NewInto(prev, rep); !errors.Is(err, ErrRoundOverflow) || prev.TerminationRound() != rounds {
		t.Fatalf("NewInto returned %v and left %d rounds, want ErrRoundOverflow and %d", err, prev.TerminationRound(), rounds)
	}
}
