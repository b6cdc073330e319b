package graph

// CSR is a compressed-sparse-row view of a graph's adjacency: the neighbour
// lists of all nodes concatenated into one flat Targets array, delimited by
// Offsets. It is the cache-friendly layout of the turbo classifier's
// refinement loop: iterating a neighbourhood touches one contiguous memory
// range instead of chasing a per-node slice header, and the whole structure
// is two allocations regardless of graph size.
//
// A CSR is a snapshot: it does not observe later mutations of the graph it
// was built from. Neighbour lists retain the sorted order of the source
// graph. Node indices are stored as int32 (the repository never approaches
// 2^31 nodes), halving the memory traffic of the int-based adjacency.
type CSR struct {
	// Offsets has length N()+1; the neighbours of node v are
	// Targets[Offsets[v]:Offsets[v+1]].
	Offsets []int32
	// Targets holds the concatenated sorted neighbour lists (length 2M).
	Targets []int32
}

// CSRInto builds the compressed-sparse-row view of g into scratch's slices
// (grown as needed; pass CSR{} for fresh ones), so that repeated
// conversions — one per configuration in a batch classification —
// allocate nothing once the slices have reached steady-state capacity.
func (g *Graph) CSRInto(scratch CSR) CSR {
	offsets := scratch.Offsets
	if cap(offsets) < g.n+1 {
		offsets = make([]int32, g.n+1)
	} else {
		offsets = offsets[:g.n+1]
	}
	targets := scratch.Targets[:0]
	for v := 0; v < g.n; v++ {
		offsets[v] = int32(len(targets))
		for _, w := range g.adj[v] {
			targets = append(targets, int32(w))
		}
	}
	offsets[g.n] = int32(len(targets))
	return CSR{Offsets: offsets, Targets: targets}
}

// N returns the number of nodes.
func (c CSR) N() int { return len(c.Offsets) - 1 }

// M returns the number of edges.
func (c CSR) M() int { return len(c.Targets) / 2 }

// Neighbors returns the sorted neighbour list of v as a sub-slice of the
// flat Targets array. The caller must not modify it.
func (c CSR) Neighbors(v int) []int32 {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// Degree returns the degree of node v.
func (c CSR) Degree(v int) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}

// MaxDegree returns the maximum degree of the graph (0 when there are no
// nodes or no edges).
func (c CSR) MaxDegree() int {
	max := 0
	for v := 0; v < c.N(); v++ {
		if d := c.Degree(v); d > max {
			max = d
		}
	}
	return max
}
