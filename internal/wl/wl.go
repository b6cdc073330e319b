// Package wl implements classic colour refinement (1-dimensional
// Weisfeiler–Leman) on tagged graphs. It is not part of the paper's
// algorithms; the experiment harness uses it as a structural point of
// comparison for the radio-model refinement performed by the Classifier:
// colour refinement sees the exact multiset of neighbour colours, whereas the
// radio model collapses simultaneous transmissions into a single noise
// symbol and cannot hear neighbours that transmit together with the
// listener. Experiment E10 measures how often the two notions of
// distinguishability coincide.
package wl

import (
	"fmt"
	"sort"
	"strings"

	"anonradio/internal/config"
)

// Result is the outcome of colour refinement on a configuration.
type Result struct {
	// Colors[v] is the stable colour class of node v (0-based, numbered by
	// first appearance in node order).
	Colors []int
	// NumColors is the number of stable colour classes.
	NumColors int
	// Rounds is the number of refinement rounds until stabilization.
	Rounds int
	// Partitions[j][v] is the colour of node v after round j (round 0 is the
	// initial colouring by wake-up tag).
	Partitions [][]int
}

// HasDiscreteNode reports whether some stable colour class contains exactly
// one node (the analogue of the Classifier's singleton-class condition).
func (r *Result) HasDiscreteNode() bool {
	counts := make([]int, r.NumColors)
	for _, c := range r.Colors {
		counts[c]++
	}
	for _, c := range counts {
		if c == 1 {
			return true
		}
	}
	return false
}

// DiscreteNodes returns the sorted list of nodes that are alone in their
// stable colour class.
func (r *Result) DiscreteNodes() []int {
	counts := make([]int, r.NumColors)
	for _, c := range r.Colors {
		counts[c]++
	}
	var out []int
	for v, c := range r.Colors {
		if counts[c] == 1 {
			out = append(out, v)
		}
	}
	return out
}

// SameColor reports whether nodes v and w have the same stable colour.
func (r *Result) SameColor(v, w int) bool { return r.Colors[v] == r.Colors[w] }

// Refine runs colour refinement on cfg. The initial colour of a node is its
// (normalized) wake-up tag; in each round a node's new colour is the pair
// (old colour, sorted multiset of neighbours' old colours). Refinement stops
// when the number of colour classes no longer grows, which happens after at
// most n rounds.
func Refine(cfg *config.Config) (*Result, error) {
	if cfg == nil {
		return nil, fmt.Errorf("wl: nil configuration")
	}
	cfg = cfg.Normalized()
	n := cfg.N()
	g := cfg.Graph()

	// Initial colouring by tag, renumbered to 0..k-1 by first appearance.
	colors := canonicalize(cfg.Tags())
	res := &Result{}
	res.Partitions = append(res.Partitions, append([]int(nil), colors...))

	numColors := countColors(colors)
	for round := 1; round <= n; round++ {
		keys := make([]string, n)
		for v := 0; v < n; v++ {
			nb := make([]int, 0, g.Degree(v))
			for _, w := range g.Neighbors(v) {
				nb = append(nb, colors[w])
			}
			sort.Ints(nb)
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d|", colors[v])
			for _, c := range nb {
				fmt.Fprintf(&sb, "%d,", c)
			}
			keys[v] = sb.String()
		}
		next := canonicalizeStrings(keys)
		nextCount := countColors(next)
		res.Rounds = round
		res.Partitions = append(res.Partitions, append([]int(nil), next...))
		colors = next
		if nextCount == numColors {
			break
		}
		numColors = nextCount
	}
	res.Colors = colors
	res.NumColors = countColors(colors)
	return res, nil
}

// canonicalize renumbers arbitrary integer labels to 0..k-1 in order of first
// appearance.
func canonicalize(labels []int) []int {
	index := make(map[int]int)
	out := make([]int, len(labels))
	for i, l := range labels {
		c, ok := index[l]
		if !ok {
			c = len(index)
			index[l] = c
		}
		out[i] = c
	}
	return out
}

// canonicalizeStrings renumbers string keys to 0..k-1 in order of first
// appearance.
func canonicalizeStrings(keys []string) []int {
	index := make(map[string]int)
	out := make([]int, len(keys))
	for i, k := range keys {
		c, ok := index[k]
		if !ok {
			c = len(index)
			index[k] = c
		}
		out[i] = c
	}
	return out
}

func countColors(colors []int) int {
	max := -1
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	return max + 1
}

// Compare describes the relationship between the colour-refinement partition
// and another partition of the same node set (typically the Classifier's
// final partition).
type Compare struct {
	// Equal is true when the two partitions induce the same equivalence
	// relation.
	Equal bool
	// WLRefines is true when every colour class is contained in a class of
	// the other partition (colour refinement distinguishes at least as much).
	WLRefines bool
	// OtherRefines is true when every class of the other partition is
	// contained in a colour class.
	OtherRefines bool
}

// CompareWith relates the stable colouring to an arbitrary partition given as
// a class index per node.
func (r *Result) CompareWith(other []int) (Compare, error) {
	if len(other) != len(r.Colors) {
		return Compare{}, fmt.Errorf("wl: partition size %d does not match %d nodes", len(other), len(r.Colors))
	}
	wlRefines := true
	otherRefines := true
	n := len(other)
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			sameWL := r.Colors[v] == r.Colors[w]
			sameOther := other[v] == other[w]
			if sameWL && !sameOther {
				wlRefines = false
			}
			if sameOther && !sameWL {
				otherRefines = false
			}
		}
	}
	return Compare{
		Equal:        wlRefines && otherRefines,
		WLRefines:    wlRefines,
		OtherRefines: otherRefines,
	}, nil
}
