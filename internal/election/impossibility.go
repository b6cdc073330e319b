package election

import (
	"fmt"

	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/history"
	"anonradio/internal/radio"
)

// This file contains executable replays of the paper's impossibility
// arguments. The proofs of Propositions 4.4 and 4.5 are constructive: given
// any candidate algorithm, they exhibit a concrete small configuration on
// which the candidate must fail. The functions below mechanize exactly that
// construction so the experiments can demonstrate the impossibility results
// on real protocol implementations (including the canonical DRIPs built for
// other configurations).

// SymmetryBreakingFailed reports whether a simulation result exhibits the
// structural failure used throughout Section 4: no node has a history that
// is unique among all nodes, hence no decision function whatsoever can elect
// exactly one leader.
func SymmetryBreakingFailed(res *radio.Result) bool {
	return len(history.UniqueIndices(res.Histories)) == 0
}

// FirstTransmissionRound runs proto on cfg and returns the first global
// round in which any of the listed nodes transmits, or -1 if none of them
// ever transmits. It is used to extract the parameter t of the proofs of
// Propositions 4.4 and 4.5.
func FirstTransmissionRound(cfg *config.Config, proto drip.Protocol, nodes []int, maxRounds int) (int, error) {
	opts := radio.Options{RecordTrace: true, MaxRounds: maxRounds}
	res, err := radio.Sequential{}.Run(cfg, proto, opts)
	if err != nil {
		// A round-limit error still carries a usable trace.
		if res == nil {
			return -1, err
		}
	}
	want := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		want[v] = true
	}
	for _, rec := range res.Trace.Rounds {
		for _, v := range rec.Transmitters {
			if want[v] {
				return rec.Global, nil
			}
		}
	}
	return -1, nil
}

// UniversalCounterexample replays the proof of Proposition 4.4 for a concrete
// candidate protocol: no single algorithm can elect a leader on every
// feasible 4-node configuration H_m. It determines the first global round t
// in which the candidate makes the tag-0 nodes of the H family transmit, and
// then checks that on H_{t+1} the candidate leaves no node with a unique
// history (so no decision function can be attached to it that elects a
// leader there). It returns the index m = t+1 of the counterexample
// configuration.
//
// If the candidate never transmits at all it fails on every H_m; in that
// case m = 1 is returned.
func UniversalCounterexample(candidate drip.Protocol, maxRounds int) (m int, err error) {
	// Probe with a large span so that the a and d nodes are still asleep
	// when the tag-0 nodes first transmit. Grow the probe span until the
	// observed t is comfortably inside it.
	probe := 8
	t := -1
	for {
		cfg := config.SpanFamilyH(probe)
		t, err = FirstTransmissionRound(cfg, candidate, []int{1, 2}, maxRounds)
		if err != nil {
			return 0, err
		}
		if t < 0 {
			// The candidate never transmits: it cannot elect a leader on any
			// configuration with more than one node.
			return 1, nil
		}
		if t+2 <= probe {
			break
		}
		probe *= 2
		if probe > 1<<20 {
			return 0, fmt.Errorf("election: probe span exhausted while locating first transmission")
		}
	}

	m = t + 1
	cfg := config.SpanFamilyH(m)
	res, err := radio.Sequential{}.Run(cfg, candidate, radio.Options{MaxRounds: maxRounds})
	if err != nil {
		return 0, fmt.Errorf("election: candidate did not terminate on H_%d: %w", m, err)
	}
	if !SymmetryBreakingFailed(res) {
		return 0, fmt.Errorf("election: candidate unexpectedly broke symmetry on H_%d", m)
	}
	return m, nil
}

// DecisionIndistinguishability replays the proof of Proposition 4.5 for a
// concrete candidate protocol: feasibility of a configuration cannot be
// decided distributedly. It determines the first global round t at which the
// candidate makes the tag-0 nodes transmit and then runs the candidate on
// the feasible configuration H_{t+1} and the infeasible configuration
// S_{t+1}. It returns m = t+1 together with a flag reporting whether every
// node observed exactly the same history in both runs (in which case no
// node can answer "feasible?" differently on the two configurations, proving
// the impossibility for this candidate).
func DecisionIndistinguishability(candidate drip.Protocol, maxRounds int) (m int, indistinguishable bool, err error) {
	probe := 8
	t := -1
	for {
		cfg := config.SymmetricFamilyS(probe)
		t, err = FirstTransmissionRound(cfg, candidate, []int{1, 2}, maxRounds)
		if err != nil {
			return 0, false, err
		}
		if t < 0 {
			// A silent candidate observes the empty environment everywhere:
			// trivially indistinguishable. Report m = 1.
			return 1, true, nil
		}
		if t+2 <= probe {
			break
		}
		probe *= 2
		if probe > 1<<20 {
			return 0, false, fmt.Errorf("election: probe span exhausted while locating first transmission")
		}
	}

	m = t + 1
	resH, err := radio.Sequential{}.Run(config.SpanFamilyH(m), candidate, radio.Options{MaxRounds: maxRounds})
	if err != nil {
		return 0, false, fmt.Errorf("election: candidate did not terminate on H_%d: %w", m, err)
	}
	resS, err := radio.Sequential{}.Run(config.SymmetricFamilyS(m), candidate, radio.Options{MaxRounds: maxRounds})
	if err != nil {
		return 0, false, fmt.Errorf("election: candidate did not terminate on S_%d: %w", m, err)
	}
	indistinguishable = true
	for v := 0; v < 4; v++ {
		if !resH.Histories[v].Equal(resS.Histories[v]) {
			indistinguishable = false
			break
		}
	}
	return m, indistinguishable, nil
}

// MinimumElectionRounds runs a dedicated algorithm on its configuration and
// returns the number of global rounds the election took; it is the
// measurement behind the lower-bound experiments on the families G_m
// (Proposition 4.1) and H_m (Proposition 4.3).
func MinimumElectionRounds(cfg *config.Config) (rounds int, leader int, err error) {
	d, err := BuildDedicated(cfg)
	if err != nil {
		return 0, -1, err
	}
	out, err := d.Elect(radio.Options{})
	if err != nil {
		return 0, -1, err
	}
	if err := d.Verify(out); err != nil {
		return 0, -1, err
	}
	return out.Rounds, out.Leader(), nil
}
