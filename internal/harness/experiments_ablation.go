package harness

import (
	"fmt"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/stats"
	"anonradio/internal/symmetry"
)

// This file implements E11 (how far the simple automorphism certificate gets
// compared to the full Classifier) and A1 (ablation of the Refine
// implementation: the paper's representative scan vs the turbo classifier's
// hashed grouping).

func e11Params(opts Options) (sizes []int, spans []int, trials int) {
	if opts.Quick {
		return []int{6, 10}, []int{0, 1, 2}, opts.trials(0, 20)
	}
	return []int{8, 12, 16}, []int{0, 1, 2, 4}, opts.trials(150, 20)
}

// E11Symmetry compares the exact tag-preserving-automorphism certificate
// ("every orbit has >= 2 nodes, hence infeasible") against the Classifier on
// random configurations: how many infeasible configurations the certificate
// catches, and that it never contradicts the Classifier.
func E11Symmetry(opts Options) (*Table, error) {
	sizes, spans, trials := e11Params(opts)
	rng := opts.rng()
	table := NewTable("E11: automorphism certificate vs Classifier",
		"n", "span", "trials", "infeasible", "certified by symmetry", "missed by symmetry", "contradictions")
	for _, n := range sizes {
		for _, span := range spans {
			infeasible, certified, missed, contradictions := 0, 0, 0, 0
			for trial := 0; trial < trials; trial++ {
				cfg := config.Random(n, 4.0/float64(n), config.UniformRandomTags{Span: span}, rng)
				rep, err := core.Classify(cfg)
				if err != nil {
					return nil, fmt.Errorf("E11 n=%d span=%d: %w", n, span, err)
				}
				cert, err := symmetry.CertifiesInfeasible(cfg, 0)
				if err != nil {
					return nil, fmt.Errorf("E11 n=%d span=%d: %w", n, span, err)
				}
				if cert && rep.Feasible() {
					contradictions++
				}
				if !rep.Feasible() {
					infeasible++
					if cert {
						certified++
					} else {
						missed++
					}
				}
			}
			table.AddRow(
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", span),
				fmt.Sprintf("%d", trials),
				fmt.Sprintf("%d", infeasible),
				fmt.Sprintf("%d", certified),
				fmt.Sprintf("%d", missed),
				fmt.Sprintf("%d", contradictions),
			)
			if contradictions > 0 {
				return nil, fmt.Errorf("E11 n=%d span=%d: symmetry certificate contradicted the classifier", n, span)
			}
		}
	}
	table.AddNote("'missed by symmetry' counts infeasible configurations with a node fixed by every automorphism: the radio model hides enough information that structure alone cannot explain their infeasibility — exactly why the paper needs the Classifier")
	return table, nil
}

func a1Sizes(opts Options) []int {
	if opts.Quick {
		return []int{16, 32}
	}
	return []int{32, 64, 128, 256}
}

// A1RefineAblation measures the wall-clock effect of the one implementation
// choice the complexity analysis of Lemma 3.5 hinges on: how nodes are
// grouped into classes during Refine. The baseline follows the paper
// (compare every node against every class representative, O(n²Δ) per
// iteration); the turbo classifier groups by hashed (class, label) keys over
// packed integer labels (O(nΔ) expected, allocation-free in steady state).
// Both produce identical reports (enforced by tests); the table reports the
// measured ratio on two opposite regimes: the dense staggered clique (few
// iterations, long labels) and the line family G_m (many iterations, many
// classes, short labels).
func A1RefineAblation(opts Options) (*Table, error) {
	table := NewTable("A1: Refine implementation ablation (representative scan vs turbo)",
		"workload", "n", "Δ", "scan refine", "turbo", "turbo speedup")
	turboEngine := core.NewTurbo()
	workloads := []struct {
		name string
		gen  func(n int) *config.Config
	}{
		{"staggered-clique", func(n int) *config.Config { return config.StaggeredClique(n) }},
		{"line-family-G", func(n int) *config.Config {
			m := n / 4
			if m < 2 {
				m = 2
			}
			return config.LineFamilyG(m)
		}},
	}
	for _, w := range workloads {
		for _, n := range a1Sizes(opts) {
			cfg := w.gen(n)
			repeat := 3
			scan := time.Duration(0)
			turbo := time.Duration(0)
			for i := 0; i < repeat; i++ {
				start := time.Now()
				if _, err := core.Classify(cfg); err != nil {
					return nil, fmt.Errorf("A1 %s n=%d: %w", w.name, n, err)
				}
				scan += time.Since(start)
				start = time.Now()
				if _, err := turboEngine.Classify(cfg, core.ClassifyOptions{}); err != nil {
					return nil, fmt.Errorf("A1 %s n=%d: %w", w.name, n, err)
				}
				turbo += time.Since(start)
			}
			table.AddRow(
				w.name,
				fmt.Sprintf("%d", cfg.N()),
				fmt.Sprintf("%d", cfg.MaxDegree()),
				(scan / time.Duration(repeat)).Round(time.Microsecond).String(),
				(turbo / time.Duration(repeat)).Round(time.Microsecond).String(),
				fmt.Sprintf("%.2f", stats.Ratio(float64(scan), float64(turbo))),
			)
		}
	}
	table.AddNote("both implementations produce identical verdicts and partitions (see internal/core/turbo_test.go); the speedup is relative to the paper-faithful representative scan, and turbo runs in lean mode (no snapshot materialization), which is how the batch survey layer drives it")
	return table, nil
}
