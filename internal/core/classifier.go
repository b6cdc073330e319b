package core

import (
	"fmt"

	"anonradio/internal/config"
)

// Snapshot captures the partition maintained by Classifier at the end of one
// iteration. Snapshot 0 is the state after Init-Aug (Algorithm 1); snapshot
// j >= 1 is the state after the j-th call to Partitioner (Algorithm 3). In
// the paper's notation, the fields of snapshot j-1 are the values indexed by
// j (vCLASS,j, vLBL,j, numClasses_{G,j}, reps_j).
type Snapshot struct {
	// Classes[v] is the 1-based equivalence class of node v.
	Classes []int
	// Labels[v] is the label assigned to node v by the Partitioner call that
	// produced this snapshot; nil in snapshot 0. A lean turbo report
	// (ClassifyOptions{RecordSnapshots: false}) keeps no label slots: its
	// one snapshot's Labels is nil.
	Labels []Label
	// NumClasses is the number of equivalence classes.
	NumClasses int
	// Reps[k-1] is the representative node of class k.
	Reps []int
}

// clone returns a deep copy of the snapshot.
func (s Snapshot) clone() Snapshot {
	c := Snapshot{
		Classes:    append([]int(nil), s.Classes...),
		NumClasses: s.NumClasses,
		Reps:       append([]int(nil), s.Reps...),
	}
	c.Labels = make([]Label, len(s.Labels))
	for i, l := range s.Labels {
		c.Labels[i] = l.Clone()
	}
	return c
}

// ClassSizes returns the number of nodes in each class, indexed by class-1.
func (s Snapshot) ClassSizes() []int {
	sizes := make([]int, s.NumClasses)
	for _, c := range s.Classes {
		sizes[c-1]++
	}
	return sizes
}

// SingletonClass returns the smallest class index (1-based) that contains
// exactly one node, or 0 if there is none.
func (s Snapshot) SingletonClass() int {
	for k, size := range s.ClassSizes() {
		if size == 1 {
			return k + 1
		}
	}
	return 0
}

// Stats collects operation counters from a Classifier run; they back the
// complexity experiments (E1) and the ablation benchmarks.
type Stats struct {
	// Iterations is the number of Partitioner calls executed.
	Iterations int
	// TripleInsertions counts triples appended to neighbourhood lists N_v.
	TripleInsertions int
	// TripleComparisons counts comparisons performed while building N_v.
	TripleComparisons int
	// LabelComparisons counts label-vs-representative comparisons in Refine.
	LabelComparisons int
}

// Decision is the verdict of the Classifier.
type Decision string

const (
	// Feasible means leader election is possible on the configuration.
	Feasible Decision = "feasible"
	// Infeasible means no deterministic distributed algorithm can elect a
	// leader on the configuration.
	Infeasible Decision = "infeasible"
)

// Report is the complete result of running Classifier on a configuration: the
// verdict, the evolution of the node partition, the representative lists L_j
// that define the canonical DRIP, and the designated leader for feasible
// configurations.
type Report struct {
	// Config is the (normalized) configuration that was classified.
	Config *config.Config
	// Decision is the verdict.
	Decision Decision
	// Snapshots[j] is the partition after iteration j (index 0 = Init-Aug).
	Snapshots []Snapshot
	// Lists holds L_1 .. L_jterm; the final list is always the terminate
	// list. Lists[j-1] is L_j.
	Lists []List
	// Leader is the designated leader (the unique node of the smallest
	// singleton class) for feasible configurations, or -1.
	Leader int
	// LeaderClass is the class index of the leader, or 0.
	LeaderClass int
	// Stats holds operation counters.
	Stats Stats
}

// Feasible reports whether the configuration was classified as feasible.
func (r *Report) Feasible() bool { return r.Decision == Feasible }

// Iterations returns the number of Partitioner calls executed. It is
// derived from the snapshot history when one was recorded, and falls back
// to the Stats counter for lean reports (ClassifyOptions{RecordSnapshots:
// false}), which keep only the final snapshot.
func (r *Report) Iterations() int {
	if n := len(r.Snapshots); n > 1 {
		return n - 1
	}
	return r.Stats.Iterations
}

// FinalSnapshot returns the partition at the end of the run.
func (r *Report) FinalSnapshot() Snapshot { return r.Snapshots[len(r.Snapshots)-1] }

// ClassOf returns the equivalence class of node v after iteration j
// (vCLASS,j+1 in the paper's indexing).
func (r *Report) ClassOf(j, v int) int { return r.Snapshots[j].Classes[v] }

// Classify runs the Classifier algorithm (Algorithm 4) on cfg and returns the
// full report. The configuration is normalized first; the report references
// the normalized configuration.
func Classify(cfg *config.Config) (*Report, error) {
	if cfg == nil {
		return nil, fmt.Errorf("core: nil configuration")
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid configuration: %w", err)
	}
	cfg = cfg.Normalized()
	n := cfg.N()
	sigma := cfg.Span()

	report := &Report{Config: cfg, Leader: -1}

	// Init-Aug (Algorithm 1): all nodes in class 1, null labels, the first
	// node is the representative of class 1.
	current := Snapshot{
		Classes:    make([]int, n),
		Labels:     make([]Label, n),
		NumClasses: 1,
		Reps:       []int{0},
	}
	for v := range current.Classes {
		current.Classes[v] = 1
	}
	report.Snapshots = append(report.Snapshots, current.clone())

	// L_1 consists of the single tuple (1, null).
	report.Lists = append(report.Lists, List{Entries: []ListEntry{{OldClass: 1, Label: nil}}})

	maxIter := (n + 1) / 2 // ⌈n/2⌉
	for i := 1; i <= maxIter; i++ {
		oldCount := current.NumClasses
		next := partitioner(cfg, sigma, current, &report.Stats)
		report.Stats.Iterations++
		report.Snapshots = append(report.Snapshots, next.clone())

		singleton := next.SingletonClass()
		noChange := next.NumClasses == oldCount

		if singleton != 0 || noChange {
			// L_{i+1} is the terminate list; the verdict follows the paper:
			// "Yes" when a singleton class exists, "No" when the partition
			// stopped refining without one. (When both hold, the singleton
			// existed already in the previous iteration and the run would
			// have stopped there, so the two conditions are effectively
			// exclusive; the singleton check takes precedence regardless.)
			report.Lists = append(report.Lists, List{Terminate: true})
			if singleton != 0 {
				report.Decision = Feasible
				report.LeaderClass = singleton
				for v := 0; v < n; v++ {
					if next.Classes[v] == singleton {
						report.Leader = v
						break
					}
				}
			} else {
				report.Decision = Infeasible
			}
			return report, nil
		}

		// Build L_{i+1} from the representatives of the new partition: for
		// class k, the pair (class of reps_{i+1}[k] at snapshot i-1, label of
		// reps_{i+1}[k] assigned at iteration i).
		prev := report.Snapshots[i-1]
		entries := make([]ListEntry, next.NumClasses)
		for k := 1; k <= next.NumClasses; k++ {
			rep := next.Reps[k-1]
			entries[k-1] = ListEntry{
				OldClass: prev.Classes[rep],
				Label:    next.Labels[rep].Clone(),
			}
		}
		report.Lists = append(report.Lists, List{Entries: entries})
		current = next
	}

	// Lemma 3.4 guarantees the loop terminates within ⌈n/2⌉ iterations; if we
	// ever get here the implementation is broken.
	return nil, fmt.Errorf("core: classifier did not converge within %d iterations on %s", maxIter, cfg)
}

// partitioner implements Algorithm 3 (Partitioner) followed by Algorithm 2
// (Refine): it computes the label of every node for the phase being simulated
// and refines the equivalence classes accordingly, returning the new
// snapshot.
func partitioner(cfg *config.Config, sigma int, prev Snapshot, stats *Stats) Snapshot {
	n := cfg.N()
	g := cfg.Graph()

	labels := make([]Label, n)
	for v := 0; v < n; v++ {
		var nv Label
		for _, nb := range g.Neighbors(v) {
			w := int(nb)
			if prev.Classes[w] == prev.Classes[v] && cfg.Tag(w) == cfg.Tag(v) {
				// v and w transmit simultaneously in this phase: v hears
				// nothing from w and detects no collision.
				continue
			}
			a := prev.Classes[w]
			b := sigma + 1 + cfg.Tag(w) - cfg.Tag(v)
			found := false
			for idx := range nv {
				stats.TripleComparisons++
				if nv[idx].Class == a && nv[idx].Round == b {
					nv[idx].Multi = true
					found = true
					break
				}
			}
			if !found {
				nv = append(nv, Triple{Class: a, Round: b})
				stats.TripleInsertions++
			}
		}
		nv.Sort()
		labels[v] = nv
	}

	// Refine (Algorithm 2).
	next := Snapshot{
		Classes:    make([]int, n),
		Labels:     labels,
		NumClasses: prev.NumClasses,
		Reps:       append([]int(nil), prev.Reps...),
	}
	oldClass := prev.Classes
	for v := 0; v < n; v++ {
		assigned := false
		for k := 1; k <= next.NumClasses; k++ {
			rep := next.Reps[k-1]
			stats.LabelComparisons++
			if oldClass[v] == oldClass[rep] && labels[v].Equal(labels[rep]) {
				next.Classes[v] = k
				assigned = true
				break
			}
		}
		if !assigned {
			next.NumClasses++
			next.Classes[v] = next.NumClasses
			next.Reps = append(next.Reps, v)
		}
	}
	return next
}
