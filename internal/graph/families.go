package graph

import "fmt"

// This file contains deterministic graph generators for the standard
// topologies used throughout the experiments: paths, cycles, stars, complete
// graphs, complete bipartite graphs, grids, tori, hypercubes, binary trees,
// caterpillars and barbells. All generators return connected graphs (for
// positive sizes) and are fully deterministic.

// edgeList collects a generator's edges as FromEdges takes them.
type edgeList []int32

func (l *edgeList) add(u, v int) { *l = append(*l, int32(u), int32(v)) }

// Path returns the path graph P_n on n nodes: 0-1-2-...-(n-1).
func Path(n int) *Graph { return FromEdges(n, pathEdges(n)) }

func pathEdges(n int) edgeList {
	var l edgeList
	for v := 0; v+1 < n; v++ {
		l.add(v, v+1)
	}
	return l
}

// Cycle returns the cycle graph C_n on n >= 3 nodes. It panics for n < 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle requires n >= 3, got %d", n))
	}
	l := pathEdges(n)
	l.add(n-1, 0)
	return FromEdges(n, l)
}

// Star returns the star graph on n nodes with node 0 as the centre.
func Star(n int) *Graph {
	var l edgeList
	for v := 1; v < n; v++ {
		l.add(0, v)
	}
	return FromEdges(n, l)
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	var l edgeList
	cliqueEdges(&l, 0, n)
	return FromEdges(n, l)
}

// cliqueEdges adds the edges of a clique on nodes from..from+k-1.
func cliqueEdges(l *edgeList, from, k int) {
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			l.add(from+u, from+v)
		}
	}
}

// CompleteBipartite returns the complete bipartite graph K_{a,b} with parts
// {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *Graph {
	var l edgeList
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			l.add(u, a+v)
		}
	}
	return FromEdges(a+b, l)
}

// Grid returns the rows×cols grid graph. Node (r,c) has index r*cols+c.
func Grid(rows, cols int) *Graph {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("graph: negative grid dimensions %dx%d", rows, cols))
	}
	return FromEdges(rows*cols, gridEdges(rows, cols))
}

func gridEdges(rows, cols int) edgeList {
	var l edgeList
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				l.add(idx(r, c), idx(r, c+1))
			}
			if r+1 < rows {
				l.add(idx(r, c), idx(r+1, c))
			}
		}
	}
	return l
}

// Torus returns the rows×cols torus (grid with wrap-around edges). Both
// dimensions must be at least 3 so that the wrap edges do not duplicate grid
// edges or create self-loops.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: torus requires dimensions >= 3, got %dx%d", rows, cols))
	}
	l := gridEdges(rows, cols)
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		l.add(idx(r, cols-1), idx(r, 0))
	}
	for c := 0; c < cols; c++ {
		l.add(idx(rows-1, c), idx(0, c))
	}
	return FromEdges(rows*cols, l)
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d nodes, where nodes
// u and v are adjacent iff their indices differ in exactly one bit.
func Hypercube(d int) *Graph {
	if d < 0 || d > 30 {
		panic(fmt.Sprintf("graph: hypercube dimension %d out of range [0,30]", d))
	}
	n := 1 << uint(d)
	var l edgeList
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << uint(b))
			if u < v {
				l.add(u, v)
			}
		}
	}
	return FromEdges(n, l)
}

// CompleteBinaryTree returns a complete binary tree with n nodes, where node
// v has children 2v+1 and 2v+2 when those indices are below n.
func CompleteBinaryTree(n int) *Graph {
	var l edgeList
	for v := 0; v < n; v++ {
		if c := 2*v + 1; c < n {
			l.add(v, c)
		}
		if c := 2*v + 2; c < n {
			l.add(v, c)
		}
	}
	return FromEdges(n, l)
}

// Caterpillar returns a caterpillar tree: a spine path of length spine with
// legs pendant nodes attached to every spine node. The total node count is
// spine*(1+legs).
func Caterpillar(spine, legs int) *Graph {
	if spine < 1 || legs < 0 {
		panic(fmt.Sprintf("graph: invalid caterpillar parameters spine=%d legs=%d", spine, legs))
	}
	l := pathEdges(spine)
	next := spine
	for v := 0; v < spine; v++ {
		for i := 0; i < legs; i++ {
			l.add(v, next)
			next++
		}
	}
	return FromEdges(spine*(1+legs), l)
}

// Barbell returns the barbell graph: two cliques K_k joined by a path of
// pathLen intermediate nodes (pathLen may be 0, in which case one node of the
// first clique is adjacent to one node of the second).
func Barbell(k, pathLen int) *Graph {
	if k < 1 || pathLen < 0 {
		panic(fmt.Sprintf("graph: invalid barbell parameters k=%d pathLen=%d", k, pathLen))
	}
	var l edgeList
	cliqueEdges(&l, 0, k)
	cliqueEdges(&l, k+pathLen, k)
	last := tailEdges(&l, k-1, k, pathLen)
	l.add(last, k+pathLen)
	return FromEdges(2*k+pathLen, l)
}

// tailEdges adds a path of pathLen nodes from..from+pathLen-1 hanging off
// node at, and returns its far end (at itself when pathLen is 0).
func tailEdges(l *edgeList, at, from, pathLen int) int {
	for i := 0; i < pathLen; i++ {
		l.add(at, from+i)
		at = from + i
	}
	return at
}

// Lollipop returns a clique K_k with a path of pathLen nodes attached to node
// k-1 of the clique.
func Lollipop(k, pathLen int) *Graph {
	if k < 1 || pathLen < 0 {
		panic(fmt.Sprintf("graph: invalid lollipop parameters k=%d pathLen=%d", k, pathLen))
	}
	var l edgeList
	cliqueEdges(&l, 0, k)
	tailEdges(&l, k-1, k, pathLen)
	return FromEdges(k+pathLen, l)
}

// Wheel returns the wheel graph W_n: a cycle on n-1 nodes (1..n-1) plus a hub
// node 0 adjacent to every cycle node. Requires n >= 4.
func Wheel(n int) *Graph {
	if n < 4 {
		panic(fmt.Sprintf("graph: wheel requires n >= 4, got %d", n))
	}
	var l edgeList
	for v := 1; v < n; v++ {
		l.add(0, v)
		next := v + 1
		if next == n {
			next = 1
		}
		l.add(v, next)
	}
	return FromEdges(n, l)
}
