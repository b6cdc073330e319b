package harness

import (
	"fmt"

	"anonradio/internal/baseline"
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/election"
	"anonradio/internal/stats"
)

// This file implements the claim-replay experiments E3-E7 and the baseline
// comparison E9.

func e3Values(opts Options) []int {
	if opts.Quick {
		return []int{2, 3, 4}
	}
	return []int{2, 4, 8, 16, 24, 32}
}

// E3LineFamily replays Proposition 4.1: the configurations G_m (span 1,
// n = 4m+1) are all feasible, yet electing a leader on them takes Ω(n)
// rounds. The table reports the measured election time of the canonical
// dedicated algorithm and its ratio to n.
func E3LineFamily(opts Options) (*Table, error) {
	table := NewTable("E3: Ω(n) lower-bound family G_m (span σ=1)",
		"m", "n", "classifier iters", "election rounds", "lower bound (m-1)", "rounds/n")
	var ns, rounds []float64
	for _, m := range e3Values(opts) {
		cfg := config.LineFamilyG(m)
		rep, err := core.Classify(cfg)
		if err != nil {
			return nil, fmt.Errorf("E3 m=%d: %w", m, err)
		}
		if !rep.Feasible() {
			return nil, fmt.Errorf("E3 m=%d: G_m must be feasible", m)
		}
		r, _, err := election.MinimumElectionRounds(cfg)
		if err != nil {
			return nil, fmt.Errorf("E3 m=%d: %w", m, err)
		}
		if r < m-1 {
			return nil, fmt.Errorf("E3 m=%d: %d rounds violates the lower bound", m, r)
		}
		table.AddRow(
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%d", cfg.N()),
			fmt.Sprintf("%d", rep.Iterations()),
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%d", m-1),
			fmt.Sprintf("%.2f", float64(r)/float64(cfg.N())),
		)
		ns = append(ns, float64(cfg.N()))
		rounds = append(rounds, float64(r))
	}
	if fit, err := stats.LogLogSlope(ns, rounds); err == nil {
		table.AddNote("election rounds scale as n^%.2f on this family (R²=%.3f); the paper proves Ω(n) and O(n²σ)", fit.Slope, fit.R2)
	}
	return table, nil
}

func e4Values(opts Options) []int {
	if opts.Quick {
		return []int{1, 4, 16}
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// E4SpanFamily replays Lemma 4.2 / Proposition 4.3: every H_m is feasible
// but needs at least m rounds, so election time grows with the span σ even
// for 4-node configurations.
func E4SpanFamily(opts Options) (*Table, error) {
	table := NewTable("E4: Ω(σ) lower-bound family H_m (n=4)",
		"m", "σ", "feasible", "election rounds", "lower bound m", "bound satisfied")
	for _, m := range e4Values(opts) {
		cfg := config.SpanFamilyH(m)
		feasible, err := election.Feasible(cfg)
		if err != nil {
			return nil, fmt.Errorf("E4 m=%d: %w", m, err)
		}
		r, _, err := election.MinimumElectionRounds(cfg)
		if err != nil {
			return nil, fmt.Errorf("E4 m=%d: %w", m, err)
		}
		table.AddRow(
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%d", cfg.Span()),
			fmt.Sprintf("%v", feasible),
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%v", r >= m),
		)
		if !feasible || r < m {
			return nil, fmt.Errorf("E4 m=%d: claim violated (feasible=%v rounds=%d)", m, feasible, r)
		}
	}
	table.AddNote("the canonical algorithm needs Θ(σ) rounds here, matching the Ω(σ) bound up to constants")
	return table, nil
}

func e5Candidates(opts Options) []int {
	if opts.Quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4, 8, 16}
}

// E5Universal replays Proposition 4.4: for every candidate "universal"
// algorithm — here the dedicated canonical algorithms built for H_k — there
// is a feasible 4-node configuration H_m on which it cannot elect a leader.
func E5Universal(opts Options) (*Table, error) {
	table := NewTable("E5: no universal algorithm for 4-node feasible configurations",
		"candidate", "counterexample H_m", "H_m feasible", "symmetry broken by candidate")
	for _, k := range e5Candidates(opts) {
		d, err := election.BuildDedicated(config.SpanFamilyH(k))
		if err != nil {
			return nil, fmt.Errorf("E5 k=%d: %w", k, err)
		}
		m, err := election.UniversalCounterexample(d.DRIP, 500000)
		if err != nil {
			return nil, fmt.Errorf("E5 k=%d: %w", k, err)
		}
		feasible, err := election.Feasible(config.SpanFamilyH(m))
		if err != nil {
			return nil, err
		}
		table.AddRow(
			fmt.Sprintf("canonical for H_%d", k),
			fmt.Sprintf("H_%d", m),
			fmt.Sprintf("%v", feasible),
			"no",
		)
		if !feasible {
			return nil, fmt.Errorf("E5 k=%d: counterexample H_%d should be feasible", k, m)
		}
	}
	table.AddNote("each dedicated algorithm solves its own configuration but provably fails on another feasible member of the same 4-node family")
	return table, nil
}

// E6Decision replays Proposition 4.5: for each candidate protocol the
// feasible configuration H_m and the infeasible configuration S_m produce
// identical histories at every node, so no distributed algorithm can decide
// feasibility.
func E6Decision(opts Options) (*Table, error) {
	table := NewTable("E6: no distributed feasibility decision",
		"candidate", "pair index m", "H_m feasible", "S_m feasible", "indistinguishable")
	for _, k := range e5Candidates(opts) {
		d, err := election.BuildDedicated(config.SpanFamilyH(k))
		if err != nil {
			return nil, fmt.Errorf("E6 k=%d: %w", k, err)
		}
		m, same, err := election.DecisionIndistinguishability(d.DRIP, 500000)
		if err != nil {
			return nil, fmt.Errorf("E6 k=%d: %w", k, err)
		}
		feasH, _ := election.Feasible(config.SpanFamilyH(m))
		feasS, _ := election.Feasible(config.SymmetricFamilyS(m))
		table.AddRow(
			fmt.Sprintf("canonical for H_%d", k),
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%v", feasH),
			fmt.Sprintf("%v", feasS),
			fmt.Sprintf("%v", same),
		)
		if !same || !feasH || feasS {
			return nil, fmt.Errorf("E6 k=%d: claim violated (same=%v H=%v S=%v)", k, same, feasH, feasS)
		}
	}
	table.AddNote("every node observes the same history on the feasible and the infeasible configuration, so it must give the same answer on both")
	return table, nil
}

func e7Params(opts Options) (sizes []int, spans []int, trials int) {
	if opts.Quick {
		return []int{6, 10}, []int{0, 1, 3}, opts.trials(0, 20)
	}
	return []int{8, 16, 32}, []int{0, 1, 2, 4, 8}, opts.trials(200, 20)
}

// E7Survey measures how common feasible configurations are across random
// workloads (a question the paper's characterization makes answerable), and
// cross-checks every verdict against the independent NaiveClassify oracle.
func E7Survey(opts Options) (*Table, error) {
	sizes, spans, trials := e7Params(opts)
	rng := opts.rng()
	table := NewTable("E7: feasibility survey over random configurations",
		"n", "span", "trials", "feasible %", "mean iterations", "oracle agreement")
	for _, n := range sizes {
		for _, span := range spans {
			// Generation stays on the single deterministic rng stream (so
			// tables are reproducible), classification fans out over the
			// turbo worker pool in lean mode, and the independent naive
			// oracle cross-checks every verdict.
			cfgs := make([]*config.Config, trials)
			for trial := range cfgs {
				cfgs[trial] = config.Random(n, 4.0/float64(n), config.UniformRandomTags{Span: span}, rng)
			}
			results := core.ClassifyBatch(cfgs, core.ClassifyOptions{}, 0)
			feasible := 0
			agree := 0
			var iters []float64
			for trial, res := range results {
				if res.Err != nil {
					return nil, fmt.Errorf("E7 n=%d span=%d: %w", n, span, res.Err)
				}
				rep := res.Report
				naive, err := baseline.NaiveClassify(cfgs[trial])
				if err != nil {
					return nil, fmt.Errorf("E7 n=%d span=%d: %w", n, span, err)
				}
				if rep.Feasible() == naive.Feasible {
					agree++
				}
				if rep.Feasible() {
					feasible++
				}
				iters = append(iters, float64(rep.Iterations()))
			}
			table.AddRow(
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", span),
				fmt.Sprintf("%d", trials),
				fmt.Sprintf("%.1f", 100*float64(feasible)/float64(trials)),
				fmt.Sprintf("%.2f", stats.Mean(iters)),
				fmt.Sprintf("%d/%d", agree, trials),
			)
			if agree != trials {
				return nil, fmt.Errorf("E7 n=%d span=%d: classifier and oracle disagreed", n, span)
			}
		}
	}
	table.AddNote("span 0 means simultaneous wake-up: only the 1-node configuration is feasible there, as the paper's introduction argues")
	return table, nil
}

func e9Sizes(opts Options) []int {
	if opts.Quick {
		return []int{4, 8}
	}
	return []int{4, 8, 16, 32, 64}
}

// E9Baselines compares the round counts of the paper's anonymous
// deterministic election (canonical DRIP on a clique with staggered
// wake-ups) against the labeled and randomized baselines on matching
// single-hop topologies.
func E9Baselines(opts Options) (*Table, error) {
	rng := opts.rng()
	trials := opts.trials(50, 10)
	table := NewTable("E9: rounds to elect a leader on an n-node single-hop network",
		"n", "canonical (anonymous, staggered)", "flood-max TDMA (labeled)", "binary search (labeled, CD)", "randomized (anonymous, CD, mean)")
	for _, n := range e9Sizes(opts) {
		cfg := config.StaggeredClique(n)
		canonicalRounds, _, err := election.MinimumElectionRounds(cfg)
		if err != nil {
			return nil, fmt.Errorf("E9 n=%d canonical: %w", n, err)
		}
		flood, err := baseline.FloodMaxTDMA(cfg, 0)
		if err != nil {
			return nil, fmt.Errorf("E9 n=%d flood-max: %w", n, err)
		}
		binary, err := baseline.BinarySearchSingleHop(n)
		if err != nil {
			return nil, fmt.Errorf("E9 n=%d binary search: %w", n, err)
		}
		var randRounds []float64
		for i := 0; i < trials; i++ {
			out, err := baseline.RandomizedSingleHop(n, rng, 0)
			if err != nil {
				return nil, fmt.Errorf("E9 n=%d randomized: %w", n, err)
			}
			randRounds = append(randRounds, float64(out.Rounds))
		}
		table.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", canonicalRounds),
			fmt.Sprintf("%d", flood.Rounds),
			fmt.Sprintf("%d", binary.Rounds),
			fmt.Sprintf("%.1f", stats.Mean(randRounds)),
		)
	}
	table.AddNote("on this staggered-clique workload the anonymous canonical algorithm needs about 4σ+2 ≈ 4n rounds (its general bound is O(n²σ)); identifiers give Θ(n·D) via flood-max, and identifiers or randomness with collision detection give O(log n) on single-hop networks, matching the related-work bounds quoted in the paper")
	return table, nil
}
