package graph

import (
	"math/rand"
	"testing"
)

func TestCSRMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	graphs := []*Graph{
		New(0),
		New(1),
		Path(7),
		Cycle(9),
		Star(6),
		Complete(8),
		RandomConnectedGNP(33, 0.2, rng),
	}
	for _, g := range graphs {
		csr := g.CSRInto(CSR{})
		if csr.N() != g.N() {
			t.Fatalf("%s: CSR.N() = %d, want %d", g, csr.N(), g.N())
		}
		if csr.M() != g.M() {
			t.Fatalf("%s: CSR.M() = %d, want %d", g, csr.M(), g.M())
		}
		if csr.MaxDegree() != g.MaxDegree() {
			t.Fatalf("%s: CSR.MaxDegree() = %d, want %d", g, csr.MaxDegree(), g.MaxDegree())
		}
		for v := 0; v < g.N(); v++ {
			want := g.Neighbors(v)
			got := csr.Neighbors(v)
			if len(got) != len(want) || csr.Degree(v) != g.Degree(v) {
				t.Fatalf("%s: node %d neighbour count mismatch: got %v want %v", g, v, got, want)
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("%s: node %d neighbour %d: got %d want %d", g, v, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCSRIsSnapshot(t *testing.T) {
	g := Path(4)
	csr := g.CSRInto(CSR{})
	g.AddEdge(0, 3)
	if csr.Degree(0) != 1 {
		t.Fatalf("CSR observed a mutation of the source graph: degree(0) = %d", csr.Degree(0))
	}
}
