package harness

import (
	"fmt"
	"io"
	"math/rand"
)

// Options control the scale of the experiment sweeps.
type Options struct {
	// Quick selects reduced parameter sweeps (used by tests and smoke runs);
	// the full sweeps are used by cmd/experiments.
	Quick bool
	// Seed seeds every randomized workload; runs with the same seed are
	// reproducible.
	Seed int64
	// Trials is the number of repetitions for randomized measurements; zero
	// selects a per-experiment default.
	Trials int
}

func (o Options) rng() *rand.Rand {
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewSource(seed))
}

func (o Options) trials(def, quick int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick {
		return quick
	}
	return def
}

// Experiment is one runnable experiment.
type Experiment struct {
	// ID is the experiment identifier ("E1" .. "E7", "E9" .. "E11", "E18",
	// "A1").
	ID string
	// Name is a short description.
	Name string
	// Run executes the experiment and returns its result table.
	Run func(Options) (*Table, error)
}

// All returns the full experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "Classifier time scaling (Theorem 3.17)", Run: E1ClassifierScaling},
		{ID: "E2", Name: "Canonical election rounds vs O(n²σ) bound (Theorem 3.15)", Run: E2ElectionRounds},
		{ID: "E3", Name: "Ω(n) lower-bound family G_m (Proposition 4.1)", Run: E3LineFamily},
		{ID: "E4", Name: "Ω(σ) lower-bound family H_m (Lemma 4.2 / Proposition 4.3)", Run: E4SpanFamily},
		{ID: "E5", Name: "No universal 4-node algorithm (Proposition 4.4)", Run: E5Universal},
		{ID: "E6", Name: "No distributed feasibility decision (Proposition 4.5)", Run: E6Decision},
		{ID: "E7", Name: "Feasibility survey and oracle agreement", Run: E7Survey},
		{ID: "E9", Name: "Baseline comparison (identifiers / randomness vs anonymity)", Run: E9Baselines},
		{ID: "E10", Name: "Radio-model refinement vs colour refinement (structural comparison)", Run: E10Structure},
		{ID: "E11", Name: "Automorphism certificate vs Classifier (structural comparison)", Run: E11Symmetry},
		{ID: "E18", Name: "Faulted medium (outcome vs drop/noise rate)", Run: E18FaultedMedium},
		{ID: "A1", Name: "Ablation: Refine implementation (representative scan vs hashing)", Run: A1RefineAblation},
	}
}

// Lookup returns the experiment with the given ID, or false.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment and writes the rendered tables to w. It
// stops at the first failure.
func RunAll(opts Options, w io.Writer) error {
	for _, exp := range All() {
		if _, err := fmt.Fprintf(w, "## %s — %s\n\n", exp.ID, exp.Name); err != nil {
			return err
		}
		table, err := exp.Run(opts)
		if err != nil {
			return fmt.Errorf("harness: %s failed: %w", exp.ID, err)
		}
		if _, err := fmt.Fprintln(w, table.String()); err != nil {
			return err
		}
	}
	return nil
}
