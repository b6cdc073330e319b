// Package graph provides the undirected simple-graph substrate used to model
// the topology of anonymous radio networks.
//
// Graphs are node-indexed: nodes are the integers 0..N-1 and edges are
// unordered pairs of distinct node indices. The package provides
// construction, adjacency queries, structural properties (degree, maximum
// degree, connectivity, distances, diameter), traversals, standard
// generators (paths, cycles, stars, grids, trees, random graphs) and bulk
// construction from an edge list (FromEdges).
//
// All operations are deterministic: neighbour lists are kept sorted so that
// iteration order never depends on insertion order. Randomized generators
// take an explicit *rand.Rand.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Graph is a simple undirected graph over nodes 0..N-1, stored as
// compressed sparse rows: node v's sorted neighbours are
// nbr[off[v]:off[v+1]], so the whole adjacency is two int32 arrays, 4(n+1)
// + 8m bytes with no per-node slice header. Node indices and offsets are
// int32: a graph holds fewer than 2³¹ nodes and 2³¹ neighbour entries.
//
// Create graphs with New, FromEdges or one of the generators; the zero value
// has no offset array and is not a valid graph.
type Graph struct {
	n   int
	off []int32 // n+1 offsets into nbr
	nbr []int32 // every node's sorted neighbour list, concatenated (2m ids)
}

// New returns an edgeless graph with n nodes. It panics if n is negative or
// past the int32 node bound.
func New(n int) *Graph {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: node count %d out of range [0,%d]", n, math.MaxInt32))
	}
	return &Graph{n: n, off: make([]int32, n+1)}
}

// Clone returns a deep copy of g in two allocations besides the Graph: one
// per array.
func (g *Graph) Clone() *Graph {
	return &Graph{n: g.n, off: slices.Clone(g.off), nbr: slices.Clone(g.nbr)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.nbr) / 2 }

// check panics if v is not a valid node index.
func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, g.n))
	}
}

// row is v's neighbour list without the range check.
func (g *Graph) row(v int) []int32 {
	lo, hi := g.off[v], g.off[v+1]
	return g.nbr[lo:hi:hi]
}

// find returns the index in nbr where w sits, or would be inserted, in u's
// row, and whether it is there. The binary search is written out: Validate
// runs one per neighbour entry on every classification, and the generic
// slices.BinarySearch doubled its cost.
func (g *Graph) find(u, w int) (int, bool) {
	x := int32(w)
	lo, end := int(g.off[u]), int(g.off[u+1])
	for hi := end; lo < hi; {
		if mid := int(uint(lo+hi) >> 1); g.nbr[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < end && g.nbr[lo] == x
}

// HasEdge reports whether the edge {u,v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := g.find(u, v)
	return ok
}

// AddEdge inserts the undirected edge {u,v}. Self-loops are rejected with a
// panic; adding an existing edge is a no-op. It shifts every later entry of
// the flat arrays, O(n+m) per call: build a graph from many edges with
// FromEdges.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u > v {
		u, v = v, u
	}
	i, ok := g.find(u, v)
	if ok {
		return
	}
	// u's row precedes v's: v goes in at i, u at k in the old array, which
	// is k+1 once v is in.
	k, _ := g.find(v, u)
	end := len(g.nbr)
	g.nbr = append(g.nbr, 0, 0)
	copy(g.nbr[k+2:], g.nbr[k:end])
	g.nbr[k+1] = int32(u)
	copy(g.nbr[i+1:k+1], g.nbr[i:k])
	g.nbr[i] = int32(v)
	g.shift(u, v, 1)
}

// RemoveEdge deletes the undirected edge {u,v} if present and reports whether
// an edge was removed. Like AddEdge it costs O(n+m).
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u > v {
		u, v = v, u
	}
	i, ok := g.find(u, v)
	if !ok {
		return false
	}
	k, _ := g.find(v, u)
	copy(g.nbr[i:k-1], g.nbr[i+1:k])
	copy(g.nbr[k-1:], g.nbr[k+1:])
	g.nbr = g.nbr[:len(g.nbr)-2]
	g.shift(u, v, -1)
	return true
}

// shift moves the row boundaries after an edit of edge {u,v}, u < v, that
// changed each of their rows by d entries: the rows after u's start d
// entries later, those after v's 2d.
func (g *Graph) shift(u, v int, d int32) {
	for w := u + 1; w <= v; w++ {
		g.off[w] += d
	}
	for w := v + 1; w <= g.n; w++ {
		g.off[w] += 2 * d
	}
}

// FromEdges returns the graph on n nodes whose edges are the consecutive
// endpoint pairs of edges: edges[2i] and edges[2i+1] are the ends of edge
// i. Pairs may repeat and come in either orientation and any order; the
// result equals the graph that AddEdge builds from them one by one. It
// panics on an odd-length list, an out-of-range endpoint, a self-loop or
// a list of more than 2³¹−1 endpoints (an offset must fit an int32).
//
// It builds the rows in one counting pass: a degree count into the
// offsets, a fill of the one neighbour array, then a sort and dedupe per
// row that compacts the rows in place.
func FromEdges(n int, edges []int32) *Graph {
	if len(edges)%2 != 0 {
		panic(fmt.Sprintf("graph: odd endpoint count %d", len(edges)))
	}
	if len(edges) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d endpoints overflow the int32 offsets", len(edges)))
	}
	g := New(n)
	off := g.off
	// off[v+1] counts v's endpoints; prefix-summed, off[v] is where v's
	// region starts, and the fill advances it to where the region ends.
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		g.check(int(u))
		g.check(int(v))
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at node %d", u))
		}
		off[u+1]++
		off[v+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	nbr := make([]int32, len(edges))
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		nbr[off[u]] = v
		off[u]++
		nbr[off[v]] = u
		off[v]++
	}
	// Node v's region is now [off[v-1], off[v]) (from 0 for node 0). Each
	// sorted, deduplicated row moves left to the write cursor w, and off[v]
	// becomes its start.
	var lo, w int32
	for v := 0; v < n; v++ {
		hi := off[v]
		row := nbr[lo:hi]
		slices.Sort(row)
		off[v] = w
		w += int32(copy(nbr[w:], slices.Compact(row)))
		lo = hi
	}
	off[n] = w
	if int(w) < len(nbr) {
		// Repeated pairs left slack: keep only the rows.
		nbr = slices.Clone(nbr[:w])
	}
	g.nbr = nbr
	return g
}

// Neighbors returns the sorted neighbour list of v, a window of the graph's
// neighbour array whose capacity ends with the list, so an append to it
// copies rather than writing into the next node's list. The caller must not
// modify it; it reflects the graph until the next AddEdge or RemoveEdge.
func (g *Graph) Neighbors(v int) []int32 {
	g.check(v)
	return g.row(v)
}

// CSR returns the graph's own compressed sparse rows: node v's sorted
// neighbours are nbr[off[v]:off[v+1]], and len(off) == N()+1. Hot loops read
// them in place; the caller must not modify them, and they are valid until
// the next AddEdge or RemoveEdge.
func (g *Graph) CSR() (off, nbr []int32) { return g.off, g.nbr }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return int(g.off[v+1] - g.off[v])
}

// MaxDegree returns the maximum degree Δ of the graph (0 for graphs with no
// nodes or no edges).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := int(g.off[v+1] - g.off[v]); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum degree of the graph, or 0 if the graph has no
// nodes.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := int(g.off[1])
	for v := 1; v < g.n; v++ {
		if d := int(g.off[v+1] - g.off[v]); d < min {
			min = d
		}
	}
	return min
}

// Edges returns all edges as pairs [2]int{u,v} with u < v, in lexicographic
// order.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, v := range g.row(u) {
			if u < int(v) {
				edges = append(edges, [2]int{u, int(v)})
			}
		}
	}
	return edges
}

// Equal reports whether g and h have the same node count and the same edge
// set (as labeled graphs; this is not isomorphism).
func (g *Graph) Equal(h *Graph) bool {
	return g.n == h.n && slices.Equal(g.off, h.off) && slices.Equal(g.nbr, h.nbr)
}

// String returns a compact human-readable description of g.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.n, g.M(), g.MaxDegree())
}

// Validate checks internal invariants (row bounds, sorted rows, symmetry, no
// self-loops) and returns an error describing the first violation found, or
// nil.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return fmt.Errorf("graph: negative node count %d", g.n)
	}
	if len(g.off) != g.n+1 || g.off[0] != 0 || int(g.off[g.n]) != len(g.nbr) {
		return fmt.Errorf("graph: %d offsets for %d nodes do not delimit %d neighbour entries", len(g.off), g.n, len(g.nbr))
	}
	if len(g.nbr)%2 != 0 {
		return fmt.Errorf("graph: odd neighbour entry count %d", len(g.nbr))
	}
	for u := 0; u < g.n; u++ {
		if g.off[u] > g.off[u+1] {
			return fmt.Errorf("graph: row of node %d ends before it starts", u)
		}
	}
	for u := 0; u < g.n; u++ {
		nb := g.row(u)
		for i, v := range nb {
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("graph: node %d has out-of-range neighbour %d", u, v)
			}
			if int(v) == u {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if i > 0 && nb[i-1] >= v {
				return fmt.Errorf("graph: adjacency of node %d not strictly sorted", u)
			}
			if _, ok := g.find(int(v), u); !ok {
				return fmt.Errorf("graph: edge %d-%d not symmetric", u, v)
			}
		}
	}
	return nil
}
