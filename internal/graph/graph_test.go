package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: got n=%d m=%d", g.N(), g.M())
	}
	if !g.Connected() {
		t.Fatalf("empty graph should be vacuously connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph failed validation: %v", err)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestAddEdgeBasic(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 2)
	if g.M() != 3 {
		t.Fatalf("expected 3 edges, got %d", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatalf("edge 0-1 missing or asymmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatalf("unexpected edge 0-2")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validation failed: %v", err)
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(0, 1)
	if g.M() != 1 {
		t.Fatalf("duplicate AddEdge should be a no-op, got m=%d", g.M())
	}
	if len(g.Neighbors(0)) != 1 || len(g.Neighbors(1)) != 1 {
		t.Fatalf("duplicate AddEdge corrupted adjacency: %v %v", g.Neighbors(0), g.Neighbors(1))
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("self-loop should panic")
		}
	}()
	g := New(2)
	g.AddEdge(1, 1)
}

func TestEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-range edge should panic")
		}
	}()
	g := New(2)
	g.AddEdge(0, 2)
}

func TestCloneIndependence(t *testing.T) {
	g := Path(5)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatalf("clone should equal original")
	}
	c.AddEdge(0, 4)
	if g.Equal(c) {
		t.Fatalf("mutating clone should not affect original")
	}
	if g.HasEdge(0, 4) {
		t.Fatalf("original gained edge from clone mutation")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(6)
	g.AddEdge(3, 5)
	g.AddEdge(3, 0)
	g.AddEdge(3, 4)
	g.AddEdge(3, 1)
	nb := g.Neighbors(3)
	want := []int32{0, 1, 4, 5}
	if len(nb) != len(want) {
		t.Fatalf("neighbour count mismatch: %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbours not sorted: got %v want %v", nb, want)
		}
	}
}

func TestDegrees(t *testing.T) {
	g := Star(7)
	if g.Degree(0) != 6 {
		t.Fatalf("star centre degree = %d, want 6", g.Degree(0))
	}
	if g.Degree(3) != 1 {
		t.Fatalf("star leaf degree = %d, want 1", g.Degree(3))
	}
	if g.MaxDegree() != 6 || g.MinDegree() != 1 {
		t.Fatalf("star degrees: max=%d min=%d", g.MaxDegree(), g.MinDegree())
	}
	hist := g.DegreeHistogram()
	if hist[1] != 6 || hist[6] != 1 {
		t.Fatalf("degree histogram wrong: %v", hist)
	}
}

func TestEdgesList(t *testing.T) {
	g := Path(4)
	edges := g.Edges()
	want := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("edge list length %d, want %d", len(edges), len(want))
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestEqual(t *testing.T) {
	a := Cycle(4)
	b := Cycle(4)
	if !a.Equal(b) {
		t.Fatalf("identical cycles should be equal")
	}
	b.AddEdge(0, 2)
	if a.Equal(b) {
		t.Fatalf("different edge sets should not be equal")
	}
	if a.Equal(Cycle(5)) {
		t.Fatalf("different sizes should not be equal")
	}
}

func TestBFSPath(t *testing.T) {
	g := Path(6)
	dist := g.BFS(0)
	for v := 0; v < 6; v++ {
		if dist[v] != v {
			t.Fatalf("path BFS distance from 0 to %d = %d, want %d", v, dist[v], v)
		}
	}
	dist = g.BFS(3)
	want := []int{3, 2, 1, 0, 1, 2}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("path BFS from 3: dist[%d]=%d want %d", v, dist[v], want[v])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	dist := g.BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("unreachable nodes should have distance -1: %v", dist)
	}
	if g.Connected() {
		t.Fatalf("two-component graph reported connected")
	}
}

func TestBFSTree(t *testing.T) {
	g := CompleteBinaryTree(7)
	parent, dist := g.BFSTree(0)
	if parent[0] != 0 || dist[0] != 0 {
		t.Fatalf("root parent/dist wrong: %d %d", parent[0], dist[0])
	}
	for v := 1; v < 7; v++ {
		want := (v - 1) / 2
		if parent[v] != want {
			t.Fatalf("parent[%d]=%d want %d", v, parent[v], want)
		}
		if dist[v] != dist[want]+1 {
			t.Fatalf("dist[%d]=%d inconsistent with parent dist %d", v, dist[v], dist[want])
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("expected 4 components, got %d: %v", len(comps), comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component wrong: %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 3 {
		t.Fatalf("singleton component wrong: %v", comps[1])
	}
}

func TestDiameterRadius(t *testing.T) {
	cases := []struct {
		name     string
		g        *Graph
		diameter int
		radius   int
	}{
		{"path6", Path(6), 5, 3},
		{"cycle6", Cycle(6), 3, 3},
		{"star5", Star(5), 2, 1},
		{"complete4", Complete(4), 1, 1},
		{"single", New(1), 0, 0},
		{"grid3x3", Grid(3, 3), 4, 2},
	}
	for _, tc := range cases {
		if d := tc.g.Diameter(); d != tc.diameter {
			t.Errorf("%s: diameter=%d want %d", tc.name, d, tc.diameter)
		}
		if r := tc.g.Radius(); r != tc.radius {
			t.Errorf("%s: radius=%d want %d", tc.name, r, tc.radius)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if g.Diameter() != -1 || g.Radius() != -1 {
		t.Fatalf("disconnected graph should have diameter/radius -1")
	}
	if g.Eccentricity(0) != -1 {
		t.Fatalf("eccentricity in disconnected graph should be -1")
	}
}

func TestIsTree(t *testing.T) {
	if !Path(5).IsTree() {
		t.Errorf("path should be a tree")
	}
	if !Star(8).IsTree() {
		t.Errorf("star should be a tree")
	}
	if Cycle(5).IsTree() {
		t.Errorf("cycle should not be a tree")
	}
	if New(0).IsTree() {
		t.Errorf("empty graph should not be a tree")
	}
	disconnected := New(4)
	disconnected.AddEdge(0, 1)
	disconnected.AddEdge(2, 3)
	// n-1 edges would be 3; this has 2, but add a redundant edge to get 3
	disconnected.AddEdge(1, 0) // no-op
	if disconnected.IsTree() {
		t.Errorf("disconnected graph should not be a tree")
	}
}

func TestFamilySizes(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"path1", Path(1), 1, 0},
		{"path5", Path(5), 5, 4},
		{"cycle3", Cycle(3), 3, 3},
		{"cycle8", Cycle(8), 8, 8},
		{"star1", Star(1), 1, 0},
		{"star6", Star(6), 6, 5},
		{"complete5", Complete(5), 5, 10},
		{"bipartite23", CompleteBipartite(2, 3), 5, 6},
		{"grid2x3", Grid(2, 3), 6, 7},
		{"torus3x3", Torus(3, 3), 9, 18},
		{"hypercube3", Hypercube(3), 8, 12},
		{"hypercube0", Hypercube(0), 1, 0},
		{"btree7", CompleteBinaryTree(7), 7, 6},
		{"caterpillar", Caterpillar(3, 2), 9, 8},
		{"barbell", Barbell(3, 2), 8, 9},
		{"lollipop", Lollipop(4, 3), 7, 9},
		{"wheel6", Wheel(6), 6, 10},
	}
	for _, tc := range cases {
		if tc.g.N() != tc.n || tc.g.M() != tc.m {
			t.Errorf("%s: got n=%d m=%d, want n=%d m=%d", tc.name, tc.g.N(), tc.g.M(), tc.n, tc.m)
		}
		if err := tc.g.Validate(); err != nil {
			t.Errorf("%s: validation failed: %v", tc.name, err)
		}
		if tc.g.N() > 0 && !tc.g.Connected() {
			t.Errorf("%s: generator produced a disconnected graph", tc.name)
		}
	}
}

func TestFamilyPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("Cycle(2)", func() { Cycle(2) })
	mustPanic("Torus(2,3)", func() { Torus(2, 3) })
	mustPanic("Wheel(3)", func() { Wheel(3) })
	mustPanic("Hypercube(-1)", func() { Hypercube(-1) })
	mustPanic("Caterpillar(0,1)", func() { Caterpillar(0, 1) })
	mustPanic("Barbell(0,0)", func() { Barbell(0, 0) })
	mustPanic("Lollipop(0,0)", func() { Lollipop(0, 0) })
	mustPanic("Grid(-1,2)", func() { Grid(-1, 2) })
}

func TestHypercubeStructure(t *testing.T) {
	g := Hypercube(4)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("hypercube Q4 node %d has degree %d, want 4", v, g.Degree(v))
		}
	}
	if g.Diameter() != 4 {
		t.Fatalf("hypercube Q4 diameter = %d, want 4", g.Diameter())
	}
}

func TestTorusRegular(t *testing.T) {
	g := Torus(4, 5)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus node %d has degree %d, want 4", v, g.Degree(v))
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 40; n++ {
		g := RandomTree(n, rng)
		if n >= 1 && !g.IsTree() && n > 0 {
			if n == 0 {
				continue
			}
			t.Fatalf("RandomTree(%d) is not a tree: n=%d m=%d connected=%v", n, g.N(), g.M(), g.Connected())
		}
	}
}

func TestRandomGNPEdgeProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 60
	p := 0.3
	total := 0
	trials := 20
	for i := 0; i < trials; i++ {
		g := RandomGNP(n, p, rng)
		total += g.M()
		if err := g.Validate(); err != nil {
			t.Fatalf("G(n,p) validation failed: %v", err)
		}
	}
	expected := float64(trials) * p * float64(n*(n-1)/2)
	got := float64(total)
	if got < 0.8*expected || got > 1.2*expected {
		t.Fatalf("G(n,p) edge count %v far from expectation %v", got, expected)
	}
}

func TestRandomGNPExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if g := RandomGNP(10, 0, rng); g.M() != 0 {
		t.Fatalf("G(n,0) should have no edges, got %d", g.M())
	}
	if g := RandomGNP(10, 1, rng); g.M() != 45 {
		t.Fatalf("G(n,1) should be complete, got %d edges", g.M())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid probability should panic")
		}
	}()
	RandomGNP(5, 1.5, rng)
}

func TestRandomConnectedGNP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []float64{0, 0.05, 0.3, 0.9} {
		for _, n := range []int{1, 2, 5, 20, 50} {
			g := RandomConnectedGNP(n, p, rng)
			if n > 0 && !g.Connected() {
				t.Fatalf("RandomConnectedGNP(n=%d,p=%v) disconnected", n, p)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("RandomConnectedGNP validation failed: %v", err)
			}
		}
	}
}

func TestRandomRegularishDegreeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{2, 3, 5} {
		g := RandomRegularish(30, d, rng)
		if !g.Connected() {
			t.Fatalf("RandomRegularish should stay connected")
		}
		for v := 0; v < g.N(); v++ {
			// The initial tree may force some node above d (a tree node can
			// have high degree), so only check that the builder didn't blow
			// far past the target.
			if g.Degree(v) > d && g.Degree(v) > g.N()-1 {
				t.Fatalf("degree bound violated at %d: %d", v, g.Degree(v))
			}
		}
	}
}

func TestRandomCaterpillarAndSpider(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 10, 25} {
		c := RandomCaterpillar(n, rng)
		if n > 0 && (!c.Connected() || c.M() != n-1) {
			t.Fatalf("RandomCaterpillar(%d) not a tree: m=%d connected=%v", n, c.M(), c.Connected())
		}
		s := RandomSubdividedStar(n, rng)
		if n > 0 && (!s.Connected() || s.M() != n-1) {
			t.Fatalf("RandomSubdividedStar(%d) not a tree: m=%d connected=%v", n, s.M(), s.Connected())
		}
	}
}

func TestPropertyRandomTreeAlwaysTree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, size uint8) bool {
		n := int(size%50) + 1
		local := rand.New(rand.NewSource(seed))
		g := RandomTree(n, local)
		return g.N() == n && g.M() == n-1 && g.Connected() && g.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatalf("property failed: %v", err)
	}
}

func TestPropertyBFSDistanceTriangle(t *testing.T) {
	// For connected graphs, dist(a,c) <= dist(a,b) + dist(b,c).
	f := func(seed int64, size uint8) bool {
		n := int(size%25) + 3
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnectedGNP(n, 0.2, rng)
		a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		da := g.BFS(a)
		db := g.BFS(b)
		return da[c] <= da[b]+db[c]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("triangle inequality violated: %v", err)
	}
}

// addEdges builds the graph FromEdges must equal: AddEdge, pair by pair.
func addEdges(n int, edges []int32) *Graph {
	g := New(n)
	for i := 0; i < len(edges); i += 2 {
		g.AddEdge(int(edges[i]), int(edges[i+1]))
	}
	return g
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []int32
	}{
		{"empty", 0, nil},
		{"isolated", 4, nil},
		{"duplicates", 3, []int32{0, 1, 0, 1, 1, 2, 0, 1}},
		{"reversed", 3, []int32{1, 0, 2, 1, 0, 1}},
		{"unsorted", 5, []int32{4, 2, 0, 3, 1, 4, 0, 1, 3, 2}},
		{"isolated nodes between", 6, []int32{5, 0, 2, 0, 5, 2}},
	}
	for _, tc := range cases {
		got, want := FromEdges(tc.n, tc.edges), addEdges(tc.n, tc.edges)
		if !got.Equal(want) {
			t.Fatalf("%s: FromEdges = %v, AddEdge = %v", tc.name, got.Edges(), want.Edges())
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

func TestPropertyFromEdgesMatchesAddEdge(t *testing.T) {
	f := func(seed int64, size, count uint8) bool {
		n := int(size%20) + 2
		rng := rand.New(rand.NewSource(seed))
		edges := make([]int32, 0, 2*int(count))
		for len(edges) < cap(edges) {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, int32(u), int32(v))
			}
		}
		g := FromEdges(n, edges)
		return g.Equal(addEdges(n, edges)) && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("property failed: %v", err)
	}
}

// TestFromEdgesListsStayApart pins that the shared backing array never lets
// a mutation of one node's list reach another's: duplicates leave slack at
// the end of a region, and AddEdge must not grow into the next region.
func TestFromEdgesListsStayApart(t *testing.T) {
	g := FromEdges(4, []int32{0, 1, 0, 1, 1, 2, 2, 3})
	want := addEdges(4, []int32{0, 1, 1, 2, 2, 3})
	g.AddEdge(0, 3)
	want.AddEdge(0, 3)
	g.AddEdge(1, 3)
	want.AddEdge(1, 3)
	if !g.Equal(want) {
		t.Fatalf("mutations leaked across lists: %v, want %v", g.Edges(), want.Edges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesPanics(t *testing.T) {
	for name, edges := range map[string][]int32{
		"odd":          {0},
		"self-loop":    {1, 1},
		"out of range": {0, 3},
		"negative":     {-1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FromEdges(3, %v) did not panic", name, edges)
				}
			}()
			FromEdges(3, edges)
		}()
	}
}

func TestStringer(t *testing.T) {
	s := Complete(4).String()
	if !strings.Contains(s, "n=4") || !strings.Contains(s, "m=6") {
		t.Fatalf("String() = %q", s)
	}
}

// TestPropertyOneRepresentation builds random edge lists, with repeated
// pairs in both orientations and in any order, three ways: FromEdges,
// AddEdge one edge at a time, and AddEdge of a random subset of the pairs
// onto a clone of FromEdges of the list without that subset. All must give
// equal, valid graphs. The clone's edits must leave the graph it was cloned
// from as it was, and an append to any returned neighbour list must not
// reach the graph.
func TestPropertyOneRepresentation(t *testing.T) {
	f := func(seed int64, size, count uint8) bool {
		n := int(size%24) + 2
		rng := rand.New(rand.NewSource(seed))
		edges := make([]int32, 0, 2*int(count))
		for len(edges) < cap(edges) {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, int32(u), int32(v))
			if rng.Intn(4) == 0 {
				// Repeat the pair, reversed half the time.
				if rng.Intn(2) == 0 {
					u, v = v, u
				}
				edges = append(edges, int32(u), int32(v))
			}
		}
		rng.Shuffle(len(edges)/2, func(i, j int) {
			edges[2*i], edges[2*j] = edges[2*j], edges[2*i]
			edges[2*i+1], edges[2*j+1] = edges[2*j+1], edges[2*i+1]
		})
		g := FromEdges(n, edges)
		if !g.Equal(addEdges(n, edges)) || g.Validate() != nil {
			t.Logf("n=%d: FromEdges %v, AddEdge %v", n, g.Edges(), addEdges(n, edges).Edges())
			return false
		}

		added := make(map[[2]int]bool)
		for _, e := range g.Edges() {
			if rng.Intn(3) == 0 {
				added[e] = true
			}
		}
		var kept []int32
		for i := 0; i < len(edges); i += 2 {
			u, v := int(edges[i]), int(edges[i+1])
			if !added[[2]int{min(u, v), max(u, v)}] {
				kept = append(kept, edges[i], edges[i+1])
			}
		}
		base := FromEdges(n, kept)
		before := base.Edges()
		edited := base.Clone()
		if !edited.Equal(base) {
			return false
		}
		for _, e := range g.Edges() {
			if added[e] {
				u, v := e[0], e[1]
				if rng.Intn(2) == 0 {
					u, v = v, u
				}
				edited.AddEdge(u, v)
			}
		}
		if !edited.Equal(g) || edited.Validate() != nil {
			t.Logf("n=%d: after AddEdge %v, want %v", n, edited.Edges(), g.Edges())
			return false
		}
		if !slices.Equal(base.Edges(), before) || base.Validate() != nil {
			t.Logf("n=%d: editing a clone changed the original", n)
			return false
		}

		before = g.Edges()
		for w := range n {
			_ = append(g.Neighbors(w), int32(n))
		}
		if !slices.Equal(g.Edges(), before) || g.Validate() != nil {
			t.Logf("n=%d: an append to a neighbour list reached the graph", n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("property failed: %v", err)
	}
}
