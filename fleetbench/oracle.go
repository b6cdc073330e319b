package main

import (
	"fmt"

	"anonradio/internal/core"
	"anonradio/internal/election"
	"anonradio/internal/radio"
)

// expect is everything the benchmark checks a configuration's answers
// against: the admission verdict and, when feasible, the elected leader and
// the number of global rounds. The oracle keeps nothing else, so the
// process heap at the end of a run is the program's, not the oracle's.
type expect struct {
	feasible bool
	leader   int32
	rounds   int32
}

// oracle computes expectations independently of the serving path: the
// verdict comes from the paper-faithful reference classifier core.Classify
// (not the turbo engine the registry builds with), and the leader and round
// count from a one-shot run of election.BuildDedicated's algorithm on the
// Sequential engine (not the pooled simulator the registry serves with).
type oracle struct {
	// wrong, when non-nil, corrupts every expectation it is given; tests
	// use it to prove that disagreements are counted.
	wrong func(*expect)
}

func (o *oracle) expectations(s *spec) (expect, error) {
	cfg, err := s.config()
	if err != nil {
		return expect{}, err
	}
	report, err := core.Classify(cfg)
	if err != nil {
		return expect{}, err
	}
	e := expect{feasible: report.Feasible(), leader: -1}
	if e.feasible {
		d, err := election.BuildDedicated(cfg)
		if err != nil {
			return expect{}, err
		}
		out, err := radio.RunElection(radio.Sequential{}, d.Config, d.Algorithm, radio.Options{MaxRounds: d.RoundBound + 1})
		if err != nil {
			return expect{}, err
		}
		if !out.Elected() || out.Leader() != report.Leader {
			return expect{}, fmt.Errorf("one-shot election elected %v, reference classifier designates %d", out.Leaders, report.Leader)
		}
		e.leader, e.rounds = int32(out.Leader()), int32(out.Rounds)
	}
	if o.wrong != nil {
		o.wrong(&e)
	}
	return e, nil
}
