package symmetry

import (
	"math/rand"
	"testing"
	"testing/quick"

	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/graph"
)

func orbits(t *testing.T, cfg *config.Config) *Result {
	t.Helper()
	r, err := Orbits(cfg, 0)
	if err != nil {
		t.Fatalf("Orbits(%s): %v", cfg, err)
	}
	return r
}

func TestOrbitsValidation(t *testing.T) {
	if _, err := Orbits(nil, 0); err == nil {
		t.Fatalf("nil configuration should error")
	}
	if _, err := Orbits(config.StaggeredClique(10), 5); err == nil {
		t.Fatalf("node limit should be enforced")
	}
}

func TestOrbitsUniformCycle(t *testing.T) {
	// The cycle with uniform tags is vertex-transitive: one orbit, dihedral
	// group of size 2n.
	r := orbits(t, config.UniformTags(graph.Cycle(5)))
	if len(r.Orbits) != 1 || len(r.Orbits[0]) != 5 {
		t.Fatalf("cycle orbits wrong: %v", r.Orbits)
	}
	if r.GroupSize != 10 {
		t.Fatalf("C5 automorphism group size = %d, want 10", r.GroupSize)
	}
	if r.HasFixedNode() {
		t.Fatalf("vertex-transitive graph has no fixed node")
	}
}

func TestOrbitsUniformStar(t *testing.T) {
	// Star with uniform tags: the centre is fixed, the k leaves form one
	// orbit, group size k!.
	r := orbits(t, config.UniformTags(graph.Star(5)))
	if len(r.Orbits) != 2 {
		t.Fatalf("star orbits wrong: %v", r.Orbits)
	}
	if !r.HasFixedNode() || len(r.FixedNodes) != 1 || r.FixedNodes[0] != 0 {
		t.Fatalf("star centre should be the unique fixed node: %v", r.FixedNodes)
	}
	if r.GroupSize != 24 {
		t.Fatalf("star automorphism group size = %d, want 4! = 24", r.GroupSize)
	}
	if !r.SameOrbit(1, 4) || r.SameOrbit(0, 1) {
		t.Fatalf("orbit relation wrong")
	}
}

func TestOrbitsTagsBreakSymmetry(t *testing.T) {
	// Distinct tags destroy all non-trivial automorphisms.
	r := orbits(t, config.StaggeredClique(5))
	if r.GroupSize != 1 || len(r.Orbits) != 5 {
		t.Fatalf("distinct tags should leave only the identity: size=%d orbits=%v", r.GroupSize, r.Orbits)
	}
	// The same clique with uniform tags is fully symmetric.
	r = orbits(t, config.UniformTags(graph.Complete(5)))
	if r.GroupSize != 120 || len(r.Orbits) != 1 {
		t.Fatalf("K5 should have group size 120 and one orbit: size=%d", r.GroupSize)
	}
}

func TestOrbitsPaperFamilies(t *testing.T) {
	// H_m has four distinct tags/positions: only the identity automorphism.
	r := orbits(t, config.SpanFamilyH(3))
	if r.GroupSize != 1 || len(r.FixedNodes) != 4 {
		t.Fatalf("H_3 should be rigid: %+v", r)
	}
	// S_m has the end-swap reflection: orbits {a,d} and {b,c}.
	r = orbits(t, config.SymmetricFamilyS(3))
	if r.GroupSize != 2 || len(r.Orbits) != 2 || r.HasFixedNode() {
		t.Fatalf("S_3 orbit structure wrong: %+v", r)
	}
	if !r.SameOrbit(0, 3) || !r.SameOrbit(1, 2) {
		t.Fatalf("S_3 orbits wrong: %v", r.Orbits)
	}
	// G_m has the mirror reflection fixing only the central node.
	m := 2
	r = orbits(t, config.LineFamilyG(m))
	if r.GroupSize != 2 {
		t.Fatalf("G_2 should have exactly the mirror symmetry: %d", r.GroupSize)
	}
	if len(r.FixedNodes) != 1 || r.FixedNodes[0] != 2*m {
		t.Fatalf("G_2 fixed nodes = %v, want the centre %d", r.FixedNodes, 2*m)
	}
}

func TestCertifiesInfeasible(t *testing.T) {
	cases := []struct {
		cfg  *config.Config
		want bool
	}{
		{config.SymmetricPair(), true},
		{config.SymmetricFamilyS(2), true},
		{config.UniformTags(graph.Cycle(6)), true},
		{config.SpanFamilyH(2), false},
		{config.LineFamilyG(2), false},
		{config.SingleNode(), false},
	}
	for _, tc := range cases {
		got, err := CertifiesInfeasible(tc.cfg, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.cfg, err)
		}
		if got != tc.want {
			t.Fatalf("%s: certificate = %v, want %v", tc.cfg, got, tc.want)
		}
	}
	if _, err := CertifiesInfeasible(nil, 0); err == nil {
		t.Fatalf("nil configuration should error")
	}
}

func TestPropertyCertificateImpliesClassifierInfeasible(t *testing.T) {
	// Soundness of the certificate: whenever every orbit has size >= 2, the
	// Classifier must also declare the configuration infeasible
	// (equivalently, feasible configurations always have a fixed node).
	f := func(seed int64, sz, span uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%10) + 2
		cfg := config.Random(n, 0.35, config.UniformRandomTags{Span: int(span % 3)}, rng)
		cert, err1 := CertifiesInfeasible(cfg, 0)
		rep, err2 := core.Classify(cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		if cert && rep.Feasible() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatalf("symmetry certificate unsound: %v", err)
	}
}

func TestPropertyOrbitsRefineClassifierPartition(t *testing.T) {
	// Nodes in a common orbit are indistinguishable by any protocol, so they
	// must end up in the same Classifier class.
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%10) + 2
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: 2}, rng)
		orb, err1 := Orbits(cfg, 0)
		rep, err2 := core.Classify(cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		final := rep.FinalSnapshot()
		for v := 0; v < n; v++ {
			for w := v + 1; w < n; w++ {
				if orb.SameOrbit(v, w) && final.Classes[v] != final.Classes[w] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatalf("orbit/class refinement violated: %v", err)
	}
}
