package graph

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/generators.golden")

// generatorCase is one generator call. A seeded case runs on a fresh
// rand.Rand per seed.
type generatorCase struct {
	name   string
	seeded bool
	gen    func(rng *rand.Rand) *Graph
}

// generatorCases lists every generator at fixed sizes (and, for the random
// ones, fixed parameters).
func generatorCases() []generatorCase {
	var cases []generatorCase
	fixed := func(name string, g func() *Graph) {
		cases = append(cases, generatorCase{name, false, func(*rand.Rand) *Graph { return g() }})
	}
	random := func(name string, g func(rng *rand.Rand) *Graph) {
		cases = append(cases, generatorCase{name, true, g})
	}
	for _, n := range []int{0, 1, 2, 7} {
		fixed(fmt.Sprintf("Path(%d)", n), func() *Graph { return Path(n) })
		fixed(fmt.Sprintf("Star(%d)", n), func() *Graph { return Star(n) })
		fixed(fmt.Sprintf("Complete(%d)", n), func() *Graph { return Complete(n) })
		fixed(fmt.Sprintf("CompleteBinaryTree(%d)", n), func() *Graph { return CompleteBinaryTree(n) })
	}
	fixed("Cycle(3)", func() *Graph { return Cycle(3) })
	fixed("Cycle(8)", func() *Graph { return Cycle(8) })
	fixed("CompleteBipartite(0,4)", func() *Graph { return CompleteBipartite(0, 4) })
	fixed("CompleteBipartite(2,3)", func() *Graph { return CompleteBipartite(2, 3) })
	fixed("Grid(0,3)", func() *Graph { return Grid(0, 3) })
	fixed("Grid(1,4)", func() *Graph { return Grid(1, 4) })
	fixed("Grid(3,4)", func() *Graph { return Grid(3, 4) })
	fixed("Torus(3,3)", func() *Graph { return Torus(3, 3) })
	fixed("Torus(3,5)", func() *Graph { return Torus(3, 5) })
	fixed("Hypercube(0)", func() *Graph { return Hypercube(0) })
	fixed("Hypercube(3)", func() *Graph { return Hypercube(3) })
	fixed("Caterpillar(1,0)", func() *Graph { return Caterpillar(1, 0) })
	fixed("Caterpillar(4,2)", func() *Graph { return Caterpillar(4, 2) })
	fixed("Barbell(1,0)", func() *Graph { return Barbell(1, 0) })
	fixed("Barbell(3,0)", func() *Graph { return Barbell(3, 0) })
	fixed("Barbell(4,2)", func() *Graph { return Barbell(4, 2) })
	fixed("Lollipop(1,3)", func() *Graph { return Lollipop(1, 3) })
	fixed("Lollipop(4,2)", func() *Graph { return Lollipop(4, 2) })
	fixed("Wheel(4)", func() *Graph { return Wheel(4) })
	fixed("Wheel(7)", func() *Graph { return Wheel(7) })
	for _, n := range []int{0, 1, 2, 3, 12} {
		for _, p := range []float64{0, 0.3, 1} {
			random(fmt.Sprintf("RandomGNP(%d,%v)", n, p), func(rng *rand.Rand) *Graph { return RandomGNP(n, p, rng) })
			random(fmt.Sprintf("RandomConnectedGNP(%d,%v)", n, p), func(rng *rand.Rand) *Graph { return RandomConnectedGNP(n, p, rng) })
		}
		random(fmt.Sprintf("RandomTree(%d)", n), func(rng *rand.Rand) *Graph { return RandomTree(n, rng) })
		random(fmt.Sprintf("RandomCaterpillar(%d)", n), func(rng *rand.Rand) *Graph { return RandomCaterpillar(n, rng) })
		random(fmt.Sprintf("RandomSubdividedStar(%d)", n), func(rng *rand.Rand) *Graph { return RandomSubdividedStar(n, rng) })
	}
	for _, n := range []int{2, 5, 16} {
		for _, d := range []int{1, 3} {
			random(fmt.Sprintf("RandomRegularish(%d,%d)", n, d), func(rng *rand.Rand) *Graph { return RandomRegularish(n, d, rng) })
		}
	}
	return cases
}

// generatorGolden renders every case as one line: its name, the edge list
// Edges returns and, for a seeded case, the generator's next draw after it
// returned, so a generator that draws a different number of values, or
// the same values in another order, changes its line even where the edge
// set happens to agree.
func generatorGolden() string {
	var b strings.Builder
	for _, c := range generatorCases() {
		seeds := []int64{0}
		if c.seeded {
			seeds = []int64{1, 7, 42}
		}
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed))
			g := c.gen(rng)
			b.WriteString(c.name)
			if c.seeded {
				fmt.Fprintf(&b, " seed=%d next=%d", seed, rng.Int63())
			}
			fmt.Fprintf(&b, " n=%d:", g.N())
			for _, e := range g.Edges() {
				fmt.Fprintf(&b, " %d-%d", e[0], e[1])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestGeneratorsGolden pins every generator's graphs, and the random ones'
// draws, to testdata/generators.golden. The file was written before the
// generators built their graphs from edge lists; rewrite it (-update) only
// for an intended change of a generator's output.
func TestGeneratorsGolden(t *testing.T) {
	path := filepath.Join("testdata", "generators.golden")
	got := generatorGolden()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
