package graph

import "fmt"

// Validate is the property tests' invariant oracle: it checks the graph's
// internal invariants (row bounds, sorted rows, symmetry, no self-loops) and
// returns an error describing the first violation found, or nil. No code
// outside the tests needs it: every constructor and AddEdge keep the
// invariants.
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
