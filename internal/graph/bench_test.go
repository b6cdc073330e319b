package graph

import "testing"

// BenchmarkFromEdges prices the parser's graph construction at the two
// shapes of the graph layer's cost: a 96-node clique (the largest served
// key, dense rows) and a 4,096-node path (many short rows).
func BenchmarkFromEdges(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *Graph
	}{
		{"clique96", Complete(96)},
		{"path4096", Path(4096)},
	} {
		var edges []int32
		for _, e := range bc.g.Edges() {
			edges = append(edges, int32(e[0]), int32(e[1]))
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				FromEdges(bc.g.N(), edges)
			}
		})
	}
}
