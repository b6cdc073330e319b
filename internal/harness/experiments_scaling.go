package harness

import (
	"fmt"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/election"
	"anonradio/internal/radio"
	"anonradio/internal/stats"
)

// This file implements the scaling experiments E1 (classifier time) and E2
// (election round counts vs the O(n²σ) bound).

// classifierWorkload is one family of configurations for E1.
type classifierWorkload struct {
	name string
	gen  func(n int, opts Options) *config.Config
}

func e1Workloads(opts Options) []classifierWorkload {
	rng := opts.rng()
	return []classifierWorkload{
		{"staggered-path", func(n int, _ Options) *config.Config { return config.StaggeredPath(n, 1) }},
		{"staggered-clique", func(n int, _ Options) *config.Config { return config.StaggeredClique(n) }},
		{"line-family-G", func(n int, _ Options) *config.Config {
			m := n / 4
			if m < 2 {
				m = 2
			}
			return config.LineFamilyG(m)
		}},
		{"random-tree", func(n int, _ Options) *config.Config {
			return config.RandomTreeConfig(n, config.UniformRandomTags{Span: 3}, rng)
		}},
		{"random-gnp", func(n int, _ Options) *config.Config {
			p := 8.0 / float64(n)
			if p > 1 {
				p = 1
			}
			return config.Random(n, p, config.UniformRandomTags{Span: 3}, rng)
		}},
	}
}

func e1Sizes(opts Options) []int {
	if opts.Quick {
		return []int{8, 16, 32}
	}
	return []int{16, 32, 64, 128, 256}
}

// E1ClassifierScaling measures the wall-clock time of Classify across graph
// families and sizes and fits the empirical scaling exponent, validating
// that the implementation stays within the O(n³Δ) bound of Theorem 3.17 (in
// practice far below it on sparse families).
func E1ClassifierScaling(opts Options) (*Table, error) {
	table := NewTable("E1: Classifier time scaling",
		"family", "n", "Δ", "σ", "iterations", "feasible", "time")
	for _, w := range e1Workloads(opts) {
		var ns, times []float64
		for _, n := range e1Sizes(opts) {
			cfg := w.gen(n, opts)
			start := time.Now()
			rep, err := core.Classify(cfg)
			elapsed := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("E1 %s n=%d: %w", w.name, n, err)
			}
			table.AddRow(w.name,
				fmt.Sprintf("%d", cfg.N()),
				fmt.Sprintf("%d", cfg.MaxDegree()),
				fmt.Sprintf("%d", cfg.Span()),
				fmt.Sprintf("%d", rep.Iterations()),
				fmt.Sprintf("%v", rep.Feasible()),
				elapsed.Round(time.Microsecond).String(),
			)
			ns = append(ns, float64(cfg.N()))
			times = append(times, float64(elapsed.Nanoseconds()))
		}
		if fit, err := stats.LogLogSlope(ns, times); err == nil {
			table.AddNote("%s: empirical time exponent ≈ n^%.2f (R²=%.3f); theorem bound is n³Δ",
				w.name, fit.Slope, fit.R2)
		}
	}
	return table, nil
}

func e2Params(opts Options) (sizes []int, spans []int, trials int) {
	if opts.Quick {
		return []int{6, 10, 16}, []int{1, 3}, opts.trials(0, 3)
	}
	return []int{8, 16, 32, 64}, []int{1, 2, 4, 8}, opts.trials(10, 3)
}

// E2ElectionRounds measures the number of global rounds the canonical
// dedicated algorithm needs on random feasible configurations, compared to
// the concrete per-configuration bound and to the asymptotic n²σ form of
// Theorem 3.15.
func E2ElectionRounds(opts Options) (*Table, error) {
	sizes, spans, trials := e2Params(opts)
	rng := opts.rng()
	table := NewTable("E2: Canonical election rounds vs O(n²σ) bound",
		"n", "σ", "feasible/trials", "mean rounds", "max rounds", "mean bound", "max/n²σ")
	for _, n := range sizes {
		for _, span := range spans {
			var rounds, bounds []float64
			feasible := 0
			for trial := 0; trial < trials; trial++ {
				cfg := config.Random(n, 4.0/float64(n), config.UniformRandomTags{Span: span}, rng)
				rep, err := core.Classify(cfg)
				if err != nil {
					return nil, fmt.Errorf("E2 n=%d σ=%d: %w", n, span, err)
				}
				if !rep.Feasible() {
					continue
				}
				feasible++
				d, err := election.BuildFromReport(rep)
				if err != nil {
					return nil, fmt.Errorf("E2 n=%d σ=%d: %w", n, span, err)
				}
				out, err := d.Elect(radio.Options{})
				if err != nil {
					return nil, fmt.Errorf("E2 n=%d σ=%d: %w", n, span, err)
				}
				if err := d.Verify(out); err != nil {
					return nil, fmt.Errorf("E2 n=%d σ=%d: %w", n, span, err)
				}
				rounds = append(rounds, float64(out.Rounds))
				bounds = append(bounds, float64(d.RoundBound))
			}
			if feasible == 0 {
				table.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", span),
					fmt.Sprintf("0/%d", trials), "-", "-", "-", "-")
				continue
			}
			rs := stats.Summarize(rounds)
			bs := stats.Summarize(bounds)
			asym := float64(n) * float64(n) * float64(maxInt(span, 1))
			table.AddRow(
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", span),
				fmt.Sprintf("%d/%d", feasible, trials),
				fmt.Sprintf("%.1f", rs.Mean),
				fmt.Sprintf("%.0f", rs.Max),
				fmt.Sprintf("%.1f", bs.Mean),
				fmt.Sprintf("%.3f", rs.Max/asym),
			)
		}
	}
	table.AddNote("every run is verified: exactly one leader, equal to the classifier's designated node, within the per-configuration bound")
	return table, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
