package graph

import (
	"fmt"
	"math/rand"
)

// This file contains randomized graph generators. Every generator takes an
// explicit *rand.Rand so that workloads are reproducible from a seed.

// RandomGNP returns an Erdős–Rényi graph G(n,p): every unordered pair of
// distinct nodes is an edge independently with probability p.
func RandomGNP(n int, p float64, rng *rand.Rand) *Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: probability %v out of range [0,1]", p))
	}
	var l edgeList
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				l.add(u, v)
			}
		}
	}
	return FromEdges(n, l)
}

// RandomConnectedGNP returns a connected graph sampled by first drawing a
// uniform random spanning tree (random Prüfer-like attachment) and then
// adding each remaining pair as an edge with probability p. The result is
// always connected, which is what the radio-network model requires.
func RandomConnectedGNP(n int, p float64, rng *rand.Rand) *Graph {
	if n <= 0 {
		return New(n)
	}
	l := randomTreeEdges(n, rng)
	tree := FromEdges(n, l)
	if p <= 0 {
		return tree
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !tree.HasEdge(u, v) && rng.Float64() < p {
				l.add(u, v)
			}
		}
	}
	return FromEdges(n, l)
}

// RandomTree returns a uniformly-random labeled tree on n nodes generated
// from a random Prüfer sequence. For n <= 2 the unique tree is returned.
func RandomTree(n int, rng *rand.Rand) *Graph {
	return FromEdges(n, randomTreeEdges(n, rng))
}

// randomTreeEdges returns RandomTree's edges, in the order the Prüfer
// decoding finds them.
func randomTreeEdges(n int, rng *rand.Rand) edgeList {
	var l edgeList
	switch {
	case n <= 1:
		return l
	case n == 2:
		l.add(0, 1)
		return l
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	// Standard Prüfer decoding using a pointer+leaf scan; O(n^2) worst case
	// but n is small in our workloads and the code stays dependency-free.
	used := make([]bool, n)
	for _, v := range prufer {
		leaf := -1
		for u := 0; u < n; u++ {
			if degree[u] == 1 && !used[u] {
				leaf = u
				break
			}
		}
		l.add(leaf, v)
		used[leaf] = true
		degree[leaf]--
		degree[v]--
	}
	// Connect the final two remaining nodes of degree 1.
	first := -1
	for u := 0; u < n; u++ {
		if degree[u] == 1 && !used[u] {
			if first < 0 {
				first = u
			} else {
				l.add(first, u)
				break
			}
		}
	}
	return l
}

// RandomRegularish returns a connected graph where every node has degree
// close to d: it starts from a random tree and then repeatedly adds random
// edges between nodes of degree < d until no such pair can be found (or
// attempts are exhausted). It is not an exact regular-graph sampler but
// provides bounded-degree workloads for the Δ-scaling experiments.
func RandomRegularish(n, d int, rng *rand.Rand) *Graph {
	if d < 1 {
		panic(fmt.Sprintf("graph: RandomRegularish requires d >= 1, got %d", d))
	}
	l := randomTreeEdges(n, rng)
	degree := make([]int, n)
	edges := make(map[[2]int]bool, len(l))
	for i := 0; i < len(l); i += 2 {
		u, v := int(l[i]), int(l[i+1])
		degree[u]++
		degree[v]++
		edges[[2]int{min(u, v), max(u, v)}] = true
	}
	attempts := 20 * n * d
	for i := 0; i < attempts; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		e := [2]int{min(u, v), max(u, v)}
		if u == v || degree[u] >= d || degree[v] >= d || edges[e] {
			continue
		}
		l.add(u, v)
		degree[u]++
		degree[v]++
		edges[e] = true
	}
	return FromEdges(n, l)
}

// RandomCaterpillar returns a random caterpillar tree on approximately n
// nodes: a spine of random length with the remaining nodes attached as legs
// at random spine positions.
func RandomCaterpillar(n int, rng *rand.Rand) *Graph {
	if n <= 2 {
		return Path(n)
	}
	spine := 2 + rng.Intn(n-2)
	l := pathEdges(spine)
	for v := spine; v < n; v++ {
		l.add(rng.Intn(spine), v)
	}
	return FromEdges(n, l)
}

// RandomSubdividedStar returns a spider: a centre node with arms of random
// lengths summing to n-1 nodes.
func RandomSubdividedStar(n int, rng *rand.Rand) *Graph {
	if n <= 2 {
		return Path(n)
	}
	arms := 2 + rng.Intn(n-2)
	if arms > n-1 {
		arms = n - 1
	}
	var l edgeList
	attach := make([]int, arms) // last node of each arm, starts at the centre
	for next := 1; next < n; next++ {
		a := rng.Intn(arms)
		l.add(attach[a], next)
		attach[a] = next
	}
	return FromEdges(n, l)
}
