package wl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"anonradio/internal/config"
	"anonradio/internal/graph"
)

func refine(t *testing.T, cfg *config.Config) *Result {
	t.Helper()
	r, err := Refine(cfg)
	if err != nil {
		t.Fatalf("Refine(%s): %v", cfg, err)
	}
	return r
}

func TestRefineInputValidation(t *testing.T) {
	if _, err := Refine(nil); err == nil {
		t.Fatalf("nil configuration should error")
	}
}

func TestRefineUniformCycle(t *testing.T) {
	// A cycle with uniform tags is vertex-transitive: a single stable colour.
	r := refine(t, config.UniformTags(graph.Cycle(6)))
	if r.NumColors != 1 || r.HasDiscreteNode() {
		t.Fatalf("uniform cycle should have one colour class: %+v", r)
	}
	if len(r.DiscreteNodes()) != 0 {
		t.Fatalf("uniform cycle should have no discrete node")
	}
}

func TestRefineUniformStar(t *testing.T) {
	// A star with uniform tags: the centre is distinguished by degree.
	r := refine(t, config.UniformTags(graph.Star(5)))
	if r.NumColors != 2 {
		t.Fatalf("star should refine into centre and leaves: %+v", r)
	}
	if !r.HasDiscreteNode() {
		t.Fatalf("the star centre should be a discrete node")
	}
	d := r.DiscreteNodes()
	if len(d) != 1 || d[0] != 0 {
		t.Fatalf("discrete nodes = %v, want [0]", d)
	}
	if r.SameColor(1, 4) != true || r.SameColor(0, 1) {
		t.Fatalf("colour relation wrong")
	}
}

func TestRefineTagsSeedColours(t *testing.T) {
	// On a path with distinct tags every node becomes discrete.
	r := refine(t, config.StaggeredPath(5, 1))
	if r.NumColors != 5 {
		t.Fatalf("distinct tags should make every node discrete: %+v", r)
	}
	// On the symmetric family S_m the two endpoints stay together, as do the
	// two middle nodes.
	r = refine(t, config.SymmetricFamilyS(2))
	if r.NumColors != 2 || r.HasDiscreteNode() {
		t.Fatalf("S_2 should refine into two size-2 classes: %+v", r)
	}
	if !r.SameColor(0, 3) || !r.SameColor(1, 2) || r.SameColor(0, 1) {
		t.Fatalf("S_2 colour classes wrong: %v", r.Colors)
	}
}

func TestRefinePartitionHistory(t *testing.T) {
	r := refine(t, config.LineFamilyG(2))
	if len(r.Partitions) != r.Rounds+1 {
		t.Fatalf("partition history length %d for %d rounds", len(r.Partitions), r.Rounds)
	}
	// Refinement is monotone: classes never merge between rounds.
	for j := 1; j < len(r.Partitions); j++ {
		prev, cur := r.Partitions[j-1], r.Partitions[j]
		for v := range cur {
			for w := range cur {
				if prev[v] != prev[w] && cur[v] == cur[w] {
					t.Fatalf("colour classes merged at round %d (%d,%d)", j, v, w)
				}
			}
		}
	}
}

func TestCompareWith(t *testing.T) {
	r := refine(t, config.UniformTags(graph.Star(4)))
	// Identical partition.
	cmp, err := r.CompareWith(r.Colors)
	if err != nil || !cmp.Equal || !cmp.WLRefines || !cmp.OtherRefines {
		t.Fatalf("self comparison wrong: %+v %v", cmp, err)
	}
	// A coarser partition (everything together): WL refines it.
	coarse := make([]int, 4)
	cmp, err = r.CompareWith(coarse)
	if err != nil || cmp.Equal || !cmp.WLRefines || cmp.OtherRefines {
		t.Fatalf("coarse comparison wrong: %+v %v", cmp, err)
	}
	// A finer partition (all distinct): it refines WL.
	fine := []int{0, 1, 2, 3}
	cmp, err = r.CompareWith(fine)
	if err != nil || cmp.Equal || cmp.WLRefines || !cmp.OtherRefines {
		t.Fatalf("fine comparison wrong: %+v %v", cmp, err)
	}
	// Size mismatch.
	if _, err := r.CompareWith([]int{0}); err == nil {
		t.Fatalf("size mismatch should error")
	}
}

func TestPropertyRefinementStableAndCanonical(t *testing.T) {
	f := func(seed int64, sz, span uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%14) + 1
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: int(span % 4)}, rng)
		r, err := Refine(cfg)
		if err != nil {
			return false
		}
		// Colours are canonical: numbered 0..k-1 with every value used, and
		// the stable partition really is stable (one more round of manual
		// refinement cannot split it, checked via the recorded history: the
		// last two partitions have the same class count).
		seen := make(map[int]bool)
		for _, c := range r.Colors {
			if c < 0 || c >= r.NumColors {
				return false
			}
			seen[c] = true
		}
		if len(seen) != r.NumColors {
			return false
		}
		if len(r.Partitions) >= 2 {
			last := r.Partitions[len(r.Partitions)-1]
			prev := r.Partitions[len(r.Partitions)-2]
			if countColors(last) < countColors(prev) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("refinement property failed: %v", err)
	}
}

func TestPropertyRelabelingInvariance(t *testing.T) {
	// The number of stable colours and the discreteness verdict are invariant
	// under node relabeling.
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%12) + 2
		base := config.Random(n, 0.3, config.UniformRandomTags{Span: 3}, rng)
		perm := rng.Perm(n)
		pg := graph.New(n)
		for _, e := range base.Graph().Edges() {
			pg.AddEdge(perm[e[0]], perm[e[1]])
		}
		ptags := make([]int, n)
		for v, tag := range base.Tags() {
			ptags[perm[v]] = tag
		}
		permuted := config.MustNew(pg, ptags)
		a, err1 := Refine(base)
		b, err2 := Refine(permuted)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.NumColors == b.NumColors && a.HasDiscreteNode() == b.HasDiscreteNode()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatalf("relabeling invariance failed: %v", err)
	}
}
