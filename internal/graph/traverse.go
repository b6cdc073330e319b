package graph

// This file contains traversals and distance-based structural properties:
// breadth-first search, connectivity, connected components, shortest-path
// distances, eccentricity, radius and diameter. All of these are needed both
// by the configuration validators (the paper requires connected graphs) and
// by the workload generators in the experiment harness.

// BFS performs a breadth-first search from source and returns the distance
// (in hops) from source to every node. Unreachable nodes get distance -1.
func (g *Graph) BFS(source int) []int {
	g.check(source)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, source)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.row(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return dist
}

// BFSTree returns, for a BFS from source, the parent of every node in the BFS
// tree (parent[source] = source; unreachable nodes get parent -1) together
// with the distance vector.
func (g *Graph) BFSTree(source int) (parent, dist []int) {
	g.check(source)
	parent = make([]int, g.n)
	dist = make([]int, g.n)
	for i := range parent {
		parent[i] = -1
		dist[i] = -1
	}
	parent[source] = source
	dist[source] = 0
	queue := []int{source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.row(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, int(v))
			}
		}
	}
	return parent, dist
}

// Connected reports whether the graph is connected. Graphs with zero nodes
// are considered connected; a one-node graph is connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Components returns the connected components of g as a list of sorted node
// slices, ordered by their smallest node.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.row(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, int(v))
				}
			}
		}
		// BFS discovery order from the smallest node is not necessarily
		// sorted; normalize.
		sortInts(comp)
		comps = append(comps, comp)
	}
	return comps
}

func sortInts(a []int) {
	// Insertion sort: component slices are typically small and this avoids
	// importing sort in two files for a single call site. For large slices
	// the cost is still dominated by BFS.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// Eccentricity returns the eccentricity of node v: the maximum hop distance
// from v to any reachable node. It returns -1 if some node is unreachable
// from v.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFS(v)
	ecc := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the diameter of a connected graph (maximum eccentricity),
// or -1 if the graph is disconnected or empty.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		e := g.Eccentricity(v)
		if e < 0 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// Radius returns the radius of a connected graph (minimum eccentricity), or
// -1 if the graph is disconnected or empty.
func (g *Graph) Radius() int {
	if g.n == 0 {
		return -1
	}
	rad := -1
	for v := 0; v < g.n; v++ {
		e := g.Eccentricity(v)
		if e < 0 {
			return -1
		}
		if rad < 0 || e < rad {
			rad = e
		}
	}
	return rad
}

// IsTree reports whether g is a tree: connected with exactly n-1 edges.
func (g *Graph) IsTree() bool {
	if g.n == 0 {
		return false
	}
	return g.M() == g.n-1 && g.Connected()
}

// DegreeHistogram returns a map from degree value to the number of nodes with
// that degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for v := 0; v < g.n; v++ {
		h[int(g.off[v+1]-g.off[v])]++
	}
	return h
}
