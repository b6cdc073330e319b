package radio

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/drip"
	"anonradio/internal/history"
)

// Tests of the event-driven round loop on protocols that implement
// ListenScheduler: the canonical DRIPs skip most consults, so their silent
// history entries are written lazily. GoroutinePerNode consults every node
// every round and records every entry as it happens, which makes it the
// independent reference.

type canonicalCase struct {
	name  string
	cfg   *config.Config
	proto *canonical.DRIP
}

// canonicalCases returns the canonical DRIPs of a clique, a G_m line and a
// random sparse configuration.
func canonicalCases(t *testing.T) []canonicalCase {
	t.Helper()
	sparse := config.Random(14, 0.2, config.UniformRandomTags{Span: 3}, rand.New(rand.NewSource(5)))
	var cases []canonicalCase
	for _, c := range []struct {
		name string
		cfg  *config.Config
	}{
		{"clique", config.StaggeredClique(7)},
		{"line", config.LineFamilyG(3)},
		{"sparse", sparse},
	} {
		rep, err := core.Classify(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d, err := canonical.New(rep)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cases = append(cases, canonicalCase{c.name, rep.Config, d})
	}
	return cases
}

// simulators returns an inline and a pool simulator for cfg; the caller
// closes them.
func simulators(t *testing.T, cfg *config.Config) []*Simulator {
	t.Helper()
	inline, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewParallelSimulator(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []*Simulator{inline, pool}
}

// TestLazySilenceRoundLimitMatchesReference cuts canonical runs off at
// rounds throughout the execution, including inside quiet listening
// stretches: the error, the bookkeeping and the terminated nodes' histories
// must match GoroutinePerNode, and every running node must report exactly
// the rounds it was awake for — the uncut run's prefix.
func TestLazySilenceRoundLimitMatchesReference(t *testing.T) {
	for _, c := range canonicalCases(t) {
		full, err := GoroutinePerNode{}.Run(c.cfg, c.proto, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sims := simulators(t, c.cfg)
		for cut := 1; cut < full.GlobalRounds; cut += 1 + cut/4 {
			opts := Options{MaxRounds: cut}
			want, wantErr := GoroutinePerNode{}.Run(c.cfg, c.proto, opts)
			if !errors.Is(wantErr, ErrRoundLimit) {
				t.Fatalf("%s cut %d: reference error %v", c.name, cut, wantErr)
			}
			for _, sim := range sims {
				got, err := sim.Run(c.proto, opts)
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s cut %d %s: error %v, want %v", c.name, cut, sim.ExecutorName(), err, wantErr)
				}
				if got.GlobalRounds != want.GlobalRounds {
					t.Fatalf("%s cut %d %s: %d rounds, want %d", c.name, cut, sim.ExecutorName(), got.GlobalRounds, want.GlobalRounds)
				}
				for v := range got.Histories {
					if got.WakeRound[v] != want.WakeRound[v] || got.Forced[v] != want.Forced[v] || got.DoneLocal[v] != want.DoneLocal[v] {
						t.Fatalf("%s cut %d %s: node %d bookkeeping differs", c.name, cut, sim.ExecutorName(), v)
					}
					h := got.Histories[v]
					switch {
					case got.WakeRound[v] < 0:
						if len(h) != 0 {
							t.Fatalf("%s cut %d %s: sleeping node %d has history %s", c.name, cut, sim.ExecutorName(), v, h)
						}
					case got.DoneLocal[v] >= 0:
						if !h.Equal(want.Histories[v]) {
							t.Fatalf("%s cut %d %s: terminated node %d history %s, want %s", c.name, cut, sim.ExecutorName(), v, h, want.Histories[v])
						}
					default:
						if len(h) != cut-got.WakeRound[v] || !h.Equal(full.Histories[v][:len(h)]) {
							t.Fatalf("%s cut %d %s: running node %d partial history %s, want %d rounds of %s",
								c.name, cut, sim.ExecutorName(), v, h, cut-got.WakeRound[v], full.Histories[v])
						}
					}
				}
			}
		}
		for _, sim := range sims {
			sim.Close()
		}
	}
}

// TestLazySilenceTraceMatchesReference compares traced canonical runs, clean
// and faulted, with GoroutinePerNode: every round record must be identical,
// with Woke, Terminated and Transmitters ascending, and so must histories
// and fault counts.
func TestLazySilenceTraceMatchesReference(t *testing.T) {
	for _, c := range canonicalCases(t) {
		plans := []*FaultPlan{nil, {Seed: 9, Drop: 0.2, Noise: 0.05, Outages: []Outage{{Node: 1, From: 2, To: 9}}}}
		sims := simulators(t, c.cfg)
		for _, plan := range plans {
			opts := Options{RecordTrace: true, Fault: plan}
			want, err := GoroutinePerNode{}.Run(c.cfg, c.proto, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for _, sim := range sims {
				got, err := sim.Run(c.proto, opts)
				if err != nil {
					t.Fatalf("%s %s: %v", c.name, sim.ExecutorName(), err)
				}
				if !sameOutcome(got, want, c.cfg.N()) || got.Faults != want.Faults {
					t.Fatalf("%s %s faulted=%v: outcome differs from the reference", c.name, sim.ExecutorName(), plan != nil)
				}
				if len(got.Trace.Rounds) != len(want.Trace.Rounds) {
					t.Fatalf("%s %s: %d traced rounds, want %d", c.name, sim.ExecutorName(), len(got.Trace.Rounds), len(want.Trace.Rounds))
				}
				for i, rec := range got.Trace.Rounds {
					if !slices.IsSorted(rec.Woke) || !slices.IsSorted(rec.Terminated) || !slices.IsSorted(rec.Transmitters) {
						t.Fatalf("%s %s round %d: unsorted record %+v", c.name, sim.ExecutorName(), i, rec)
					}
					if !reflect.DeepEqual(rec, want.Trace.Rounds[i]) {
						t.Fatalf("%s %s round %d: record %+v, want %+v", c.name, sim.ExecutorName(), i, rec, want.Trace.Rounds[i])
					}
				}
			}
		}
		for _, sim := range sims {
			sim.Close()
		}
	}
}

// TestResetAfterAbortedRunMatchesFresh leaves consults pending on the
// agenda — a round-limit cut and an invalid action mid-run — then runs
// again, and rebinds the simulator to configurations of other shapes: every
// run must match a fresh simulator's.
func TestResetAfterAbortedRunMatchesFresh(t *testing.T) {
	cases := canonicalCases(t)
	bad := drip.Func(func(h history.Vector) drip.Action {
		if len(h) >= 3 {
			return drip.Action{Kind: 42}
		}
		return drip.ListenAction()
	})
	for _, sim := range simulators(t, cases[0].cfg) {
		for i := 0; i < 2*len(cases); i++ {
			c := cases[i%len(cases)]
			if err := sim.Reset(c.cfg); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewSimulator(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(c.proto, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(c.proto, Options{})
			if err != nil {
				t.Fatalf("%s after Reset: %v", c.name, err)
			}
			sameResult(t, want, got)
			// Abort this run with consults pending for the next Reset.
			if i%2 == 0 {
				_, err = sim.Run(c.proto, Options{MaxRounds: want.GlobalRounds / 2})
			} else {
				_, err = sim.Run(bad, Options{})
			}
			if err == nil {
				t.Fatalf("%s: aborted run returned no error", c.name)
			}
			if got, err = sim.Run(c.proto, Options{}); err != nil {
				t.Fatalf("%s after an aborted run: %v", c.name, err)
			}
			sameResult(t, want, got)
		}
		sim.Close()
	}
}

// TestAgendaSizedFromRoundLimit pins the memory a pooled simulator keeps
// after a bounded run: the calendar never grows past the round limit, and
// lazily padded histories hold no more capacity than recording them round
// by round with append would give them.
func TestAgendaSizedFromRoundLimit(t *testing.T) {
	for _, c := range canonicalCases(t) {
		sim, err := NewSimulator(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(c.proto, Options{})
		if err != nil {
			t.Fatal(err)
		}
		limit := res.GlobalRounds + 1
		sim, err = NewSimulator(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = sim.Run(c.proto, Options{MaxRounds: limit}); err != nil {
			t.Fatal(err)
		}
		if cap(sim.heads) > limit {
			t.Fatalf("%s: calendar holds %d rounds, round limit is %d", c.name, cap(sim.heads), limit)
		}
		for v, h := range res.Histories {
			var appended history.Vector
			for range h {
				appended = append(appended, history.Entry{})
			}
			if cap(h) > cap(appended) {
				t.Fatalf("%s: node %d history capacity %d, round-by-round appends give %d", c.name, v, cap(h), cap(appended))
			}
		}
	}
}
