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
	"slices"
	"sort"
)

// Graph is a simple undirected graph over nodes 0..N-1.
//
// The zero value is an empty graph with no nodes. Use New or one of the
// generators to create a graph with nodes.
type Graph struct {
	n   int
	adj [][]int // adj[v] is the sorted list of neighbours of v
	m   int     // number of edges
}

// New returns an edgeless graph with n nodes. It panics if n is negative.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.m = g.m
	for v := range g.adj {
		if len(g.adj[v]) > 0 {
			c.adj[v] = append([]int(nil), g.adj[v]...)
		}
	}
	return c
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// check panics if v is not a valid node index.
func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, g.n))
	}
}

// HasEdge reports whether the edge {u,v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	nb := g.adj[u]
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// AddEdge inserts the undirected edge {u,v}. Self-loops are rejected with a
// panic; adding an existing edge is a no-op.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if g.HasEdge(u, v) {
		return
	}
	g.insert(u, v)
	g.insert(v, u)
	g.m++
}

// FromEdges returns the graph on n nodes whose edges are the consecutive
// endpoint pairs of edges: edges[2i] and edges[2i+1] are the ends of edge
// i. Pairs may repeat and come in either orientation and any order; the
// result equals the graph that AddEdge builds from them one by one. It
// panics on an odd-length list, an out-of-range endpoint or a self-loop.
//
// It builds the graph in bulk: a degree count, one backing array for all
// neighbour lists, then a sort and dedupe per node.
func FromEdges(n int, edges []int32) *Graph {
	if len(edges)%2 != 0 {
		panic(fmt.Sprintf("graph: odd endpoint count %d", len(edges)))
	}
	g := New(n)
	// end[v+1] counts v's endpoints; prefix-summed, end[v] is where v's
	// region of the backing array starts, and the fill advances it to where
	// the region ends.
	end := make([]int, n+1)
	for i := 0; i < len(edges); i += 2 {
		u, v := int(edges[i]), int(edges[i+1])
		g.check(u)
		g.check(v)
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at node %d", u))
		}
		end[u+1]++
		end[v+1]++
	}
	for v := 1; v <= n; v++ {
		end[v] += end[v-1]
	}
	backing := make([]int, len(edges))
	for i := 0; i < len(edges); i += 2 {
		u, v := int(edges[i]), int(edges[i+1])
		backing[end[u]] = v
		end[u]++
		backing[end[v]] = u
		end[v]++
	}
	// Node v's region is now [end[v-1], end[v]). Each list's capacity stops
	// at its region's end, so an AddEdge on one node never writes into the
	// next node's list.
	lo := 0
	for v := 0; v < n; v++ {
		hi := end[v]
		nb := backing[lo:hi:hi]
		slices.Sort(nb)
		if nb = slices.Compact(nb); len(nb) > 0 {
			g.adj[v] = nb
			g.m += len(nb)
		}
		lo = hi
	}
	g.m /= 2
	return g
}

func (g *Graph) insert(u, v int) {
	nb := g.adj[u]
	i := sort.SearchInts(nb, v)
	nb = append(nb, 0)
	copy(nb[i+1:], nb[i:])
	nb[i] = v
	g.adj[u] = nb
}

// RemoveEdge deletes the undirected edge {u,v} if present and reports whether
// an edge was removed.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if !g.HasEdge(u, v) {
		return false
	}
	g.erase(u, v)
	g.erase(v, u)
	g.m--
	return true
}

func (g *Graph) erase(u, v int) {
	nb := g.adj[u]
	i := sort.SearchInts(nb, v)
	g.adj[u] = append(nb[:i], nb[i+1:]...)
}

// Neighbors returns the sorted neighbour list of v. The returned slice must
// not be modified by the caller.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	return g.adj[v]
}

// Adjacency returns every node's sorted neighbour list, indexed by node:
// Adjacency()[v] is Neighbors(v) without the range check. The lists are the
// graph's own, so they follow later AddEdge and RemoveEdge calls; the
// caller must not modify them.
func (g *Graph) Adjacency() [][]int { return g.adj }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// MaxDegree returns the maximum degree Δ of the graph (0 for graphs with no
// nodes or no edges).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
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
	min := len(g.adj[0])
	for v := 1; v < g.n; v++ {
		if d := len(g.adj[v]); d < min {
			min = d
		}
	}
	return min
}

// Edges returns all edges as pairs [2]int{u,v} with u < v, in lexicographic
// order.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return edges
}

// Equal reports whether g and h have the same node count and the same edge
// set (as labeled graphs; this is not isomorphism).
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for v := 0; v < g.n; v++ {
		a, b := g.adj[v], h.adj[v]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// String returns a compact human-readable description of g.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.n, g.m, g.MaxDegree())
}

// Validate checks internal invariants (sorted adjacency, symmetry, no
// self-loops, consistent edge count) and returns an error describing the
// first violation found, or nil.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return fmt.Errorf("graph: negative node count %d", g.n)
	}
	if len(g.adj) != g.n {
		return fmt.Errorf("graph: adjacency length %d != n %d", len(g.adj), g.n)
	}
	count := 0
	for u := 0; u < g.n; u++ {
		nb := g.adj[u]
		for i, v := range nb {
			if v < 0 || v >= g.n {
				return fmt.Errorf("graph: node %d has out-of-range neighbour %d", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if i > 0 && nb[i-1] >= v {
				return fmt.Errorf("graph: adjacency of node %d not strictly sorted", u)
			}
			if !g.HasEdge(v, u) {
				return fmt.Errorf("graph: edge %d-%d not symmetric", u, v)
			}
		}
		count += len(nb)
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency degree sum %d", g.m, count)
	}
	return nil
}
