// Package baseline provides reference implementations used to validate and
// contextualize the paper's algorithms:
//
//   - NaiveClassify: an independent feasibility decider that re-derives the
//     canonical-DRIP phase histories directly from global-round collision
//     semantics, without the Classifier's triple/label bookkeeping. It is
//     used as a cross-check oracle for internal/core.
//   - Labeled baselines (flood-max with TDMA slots, single-hop binary
//     search) and a randomized single-hop election, quantifying what node
//     identifiers or randomness buy relative to the paper's anonymous
//     deterministic setting.
package baseline

import (
	"fmt"
	"sort"
	"strings"

	"anonradio/internal/config"
)

// NaiveReport is the result of NaiveClassify.
type NaiveReport struct {
	// Feasible is the verdict.
	Feasible bool
	// Iterations is the number of refinement phases simulated.
	Iterations int
	// Partitions[j][v] is the 0-based class of node v after phase j
	// (Partitions[0] is the trivial all-in-one partition).
	Partitions [][]int
	// Leader is a node that ends up alone in its class for feasible
	// configurations, or -1.
	Leader int
}

// SameClass reports whether nodes v and w share a class after phase j.
func (r *NaiveReport) SameClass(j, v, w int) bool {
	return r.Partitions[j][v] == r.Partitions[j][w]
}

// NaiveClassify decides feasibility of cfg by direct simulation of the
// canonical phase structure: in each phase every node transmits once, in the
// (σ+1)-th round of the transmission block given by its current class, and
// nodes are re-partitioned by the literal sequence of events (message /
// noise / silence, per local round) they would observe. The partition
// refines until a singleton class appears (feasible) or it stabilizes
// (infeasible).
//
// The implementation deliberately avoids the label/triple machinery of
// internal/core so that it can serve as an independent oracle: agreement of
// the two implementations on randomized workloads is checked by tests and by
// experiment E7.
func NaiveClassify(cfg *config.Config) (*NaiveReport, error) {
	if cfg == nil {
		return nil, fmt.Errorf("baseline: nil configuration")
	}
	cfg = cfg.Normalized()
	n := cfg.N()
	g := cfg.Graph()
	sigma := cfg.Span()
	blockLen := 2*sigma + 1

	classes := make([]int, n) // 0-based class numbers
	numClasses := 1
	report := &NaiveReport{Leader: -1}
	report.Partitions = append(report.Partitions, append([]int(nil), classes...))

	// The phase loop: at most n iterations are ever needed (the partition
	// can refine at most n-1 times).
	for iter := 1; iter <= n; iter++ {
		// Global round (relative to the phase origin) in which each node
		// transmits: a node in class c transmits in its local round
		// c*blockLen + σ + 1, which happens tag + that many rounds after the
		// phase origin.
		txTime := make([]int, n)
		for v := 0; v < n; v++ {
			txTime[v] = cfg.Tag(v) + classes[v]*blockLen + sigma + 1
		}

		// For every node, replay what it hears during the phase's
		// transmission blocks, indexed by its local round offset.
		signatures := make([]string, n)
		for v := 0; v < n; v++ {
			var events []string
			for offset := 1; offset <= numClasses*blockLen; offset++ {
				globalTime := cfg.Tag(v) + offset
				if txTime[v] == globalTime {
					// v transmits in this round and hears nothing.
					continue
				}
				transmitters := 0
				for _, w := range g.Neighbors(v) {
					if txTime[w] == globalTime {
						transmitters++
					}
				}
				switch {
				case transmitters == 1:
					events = append(events, fmt.Sprintf("%d:M", offset))
				case transmitters >= 2:
					events = append(events, fmt.Sprintf("%d:*", offset))
				}
			}
			sort.Strings(events)
			signatures[v] = fmt.Sprintf("c%d|%s", classes[v], strings.Join(events, ","))
		}

		// Refine: group nodes by signature, numbering classes by first
		// appearance.
		index := make(map[string]int)
		next := make([]int, n)
		for v := 0; v < n; v++ {
			c, ok := index[signatures[v]]
			if !ok {
				c = len(index)
				index[signatures[v]] = c
			}
			next[v] = c
		}
		newCount := len(index)
		classes = next
		report.Partitions = append(report.Partitions, append([]int(nil), classes...))
		report.Iterations = iter

		// Check for a singleton class.
		sizes := make([]int, newCount)
		for _, c := range classes {
			sizes[c]++
		}
		singleton := -1
		for c, s := range sizes {
			if s == 1 {
				singleton = c
				break
			}
		}
		if singleton >= 0 {
			report.Feasible = true
			for v := 0; v < n; v++ {
				if classes[v] == singleton {
					report.Leader = v
					break
				}
			}
			return report, nil
		}
		if newCount == numClasses {
			report.Feasible = false
			return report, nil
		}
		numClasses = newCount
	}
	return nil, fmt.Errorf("baseline: naive classifier did not converge on %s", cfg)
}
