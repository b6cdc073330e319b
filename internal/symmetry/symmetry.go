// Package symmetry computes the tag-preserving automorphisms of a
// configuration and their node orbits. It provides an exact structural
// certificate for one direction of the feasibility question: if every orbit
// of the tag-preserving automorphism group has at least two nodes, then any
// two nodes in the same orbit behave identically under every deterministic
// protocol, no node can ever be distinguished, and the configuration is
// infeasible. (The converse does not hold: a configuration can have trivial
// automorphisms and still be infeasible, because the radio model lets nodes
// observe strictly less than the full structure — experiment E11 quantifies
// the gap.)
//
// The group is computed by a straightforward backtracking search over
// candidate node bijections, pruned by degree, tag and adjacency
// constraints. This is exponential in the worst case but perfectly adequate
// for the configuration sizes used in the experiments; Orbits guards against
// blow-ups with an explicit node budget.
package symmetry

import (
	"fmt"
	"sort"

	"anonradio/internal/config"
)

// Result describes the tag-preserving automorphism structure of a
// configuration.
type Result struct {
	// Orbits lists the node orbits (each sorted), ordered by smallest
	// element.
	Orbits [][]int
	// OrbitOf[v] is the index into Orbits of node v's orbit.
	OrbitOf []int
	// GroupSize is the number of tag-preserving automorphisms found
	// (including the identity).
	GroupSize int
	// FixedNodes lists the nodes fixed by every automorphism (the singleton
	// orbits), sorted.
	FixedNodes []int
}

// HasFixedNode reports whether some node is fixed by every tag-preserving
// automorphism. If not, the configuration is certainly infeasible.
func (r *Result) HasFixedNode() bool { return len(r.FixedNodes) > 0 }

// SameOrbit reports whether nodes v and w lie in a common orbit.
func (r *Result) SameOrbit(v, w int) bool { return r.OrbitOf[v] == r.OrbitOf[w] }

// DefaultNodeLimit bounds the configuration size accepted by Orbits; the
// backtracking search is exponential in the worst case and the experiments
// never need more.
const DefaultNodeLimit = 64

// Orbits computes the orbit partition of the tag-preserving automorphism
// group of cfg. Configurations larger than limit nodes are rejected; pass
// limit <= 0 for DefaultNodeLimit.
func Orbits(cfg *config.Config, limit int) (*Result, error) {
	if cfg == nil {
		return nil, fmt.Errorf("symmetry: nil configuration")
	}
	if limit <= 0 {
		limit = DefaultNodeLimit
	}
	n := cfg.N()
	if n > limit {
		return nil, fmt.Errorf("symmetry: configuration has %d nodes, limit is %d", n, limit)
	}
	cfg = cfg.Normalized()
	g := cfg.Graph()

	// Pre-compute the per-node invariants used for pruning: wake-up tag,
	// degree, and the sorted multiset of neighbour (tag, degree) pairs.
	type nodeSig struct {
		tag, degree int
		neigh       string
	}
	sigs := make([]nodeSig, n)
	for v := 0; v < n; v++ {
		pairs := make([][2]int, 0, g.Degree(v))
		for _, w := range g.Neighbors(v) {
			pairs = append(pairs, [2]int{cfg.Tag(int(w)), g.Degree(int(w))})
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		sigs[v] = nodeSig{tag: cfg.Tag(v), degree: g.Degree(v), neigh: fmt.Sprint(pairs)}
	}
	compatible := func(u, v int) bool { return sigs[u] == sigs[v] }

	// Union-find over nodes to accumulate orbits.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Backtracking over images: perm[v] = image of node v, or -1.
	perm := make([]int, n)
	used := make([]bool, n)
	for i := range perm {
		perm[i] = -1
	}
	groupSize := 0

	// consistent checks whether mapping v -> image respects adjacency with
	// all previously mapped nodes.
	consistent := func(v, image int) bool {
		if !compatible(v, image) {
			return false
		}
		for u := 0; u < v; u++ {
			if perm[u] < 0 {
				continue
			}
			if g.HasEdge(u, v) != g.HasEdge(perm[u], image) {
				return false
			}
		}
		return true
	}

	var search func(v int)
	search = func(v int) {
		if v == n {
			groupSize++
			for u := 0; u < n; u++ {
				union(u, perm[u])
			}
			return
		}
		for image := 0; image < n; image++ {
			if used[image] || !consistent(v, image) {
				continue
			}
			perm[v] = image
			used[image] = true
			search(v + 1)
			perm[v] = -1
			used[image] = false
		}
	}
	search(0)

	// Assemble orbits.
	res := &Result{OrbitOf: make([]int, n), GroupSize: groupSize}
	roots := make(map[int]int)
	for v := 0; v < n; v++ {
		r := find(v)
		idx, ok := roots[r]
		if !ok {
			idx = len(res.Orbits)
			roots[r] = idx
			res.Orbits = append(res.Orbits, nil)
		}
		res.OrbitOf[v] = idx
		res.Orbits[idx] = append(res.Orbits[idx], v)
	}
	for _, orbit := range res.Orbits {
		if len(orbit) == 1 {
			res.FixedNodes = append(res.FixedNodes, orbit[0])
		}
	}
	sort.Ints(res.FixedNodes)
	return res, nil
}

// CertifiesInfeasible reports whether the automorphism structure alone proves
// that cfg is infeasible: every orbit has at least two nodes, so nodes come
// in indistinguishable pairs under any deterministic protocol.
func CertifiesInfeasible(cfg *config.Config, limit int) (bool, error) {
	r, err := Orbits(cfg, limit)
	if err != nil {
		return false, err
	}
	return !r.HasFixedNode(), nil
}
