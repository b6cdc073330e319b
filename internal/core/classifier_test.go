package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"anonradio/internal/config"
	"anonradio/internal/graph"
)

func classify(t *testing.T, cfg *config.Config) *Report {
	t.Helper()
	rep, err := Classify(cfg)
	if err != nil {
		t.Fatalf("Classify(%s): %v", cfg, err)
	}
	return rep
}

func TestClassifyInputValidation(t *testing.T) {
	if _, err := Classify(nil); err == nil {
		t.Fatalf("nil configuration should error")
	}
}

func TestSingleNodeFeasible(t *testing.T) {
	rep := classify(t, config.SingleNode())
	if !rep.Feasible() || rep.Leader != 0 || rep.LeaderClass != 1 {
		t.Fatalf("single node should be trivially feasible: %+v", rep.Decision)
	}
	if rep.Iterations() != 1 {
		t.Fatalf("single node should classify in 1 iteration, got %d", rep.Iterations())
	}
}

func TestSymmetricPairInfeasible(t *testing.T) {
	rep := classify(t, config.SymmetricPair())
	if rep.Feasible() {
		t.Fatalf("two nodes with equal tags can never elect a leader")
	}
	if rep.Leader != -1 || rep.LeaderClass != 0 {
		t.Fatalf("infeasible report should not designate a leader: %d/%d", rep.Leader, rep.LeaderClass)
	}
}

func TestAsymmetricPairFeasible(t *testing.T) {
	for _, delay := range []int{1, 2, 5} {
		rep := classify(t, config.AsymmetricPair(delay))
		if !rep.Feasible() {
			t.Fatalf("asymmetric pair with delay %d should be feasible", delay)
		}
	}
}

func TestUniformTagsInfeasible(t *testing.T) {
	// With identical wake-up tags symmetry can never be broken (Section 1.1):
	// vertex-transitive graphs make this obvious, but Classifier must reject
	// every uniform-tag configuration with n >= 2 that has a non-trivial
	// automorphism preserving the (constant) tags; all the graphs below do.
	graphs := []*graph.Graph{
		graph.Cycle(5), graph.Complete(4), graph.Path(4), graph.Star(5), graph.Hypercube(3),
	}
	for _, g := range graphs {
		rep := classify(t, config.UniformTags(g))
		if rep.Feasible() {
			t.Fatalf("uniform tags on %s should be infeasible", g)
		}
	}
}

func TestUniformTagsAsymmetricGraphStillInfeasible(t *testing.T) {
	// Even on an asymmetric graph, equal wake-up tags make leader election
	// impossible in the radio model: with all nodes acting identically in
	// round 1, either everyone transmits or everyone listens, so no node can
	// ever hear a message and histories can never diverge.
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(2, 4)
	g.AddEdge(4, 5)
	g.AddEdge(0, 5)
	rep := classify(t, config.UniformTags(g))
	if rep.Feasible() {
		t.Fatalf("uniform tags must be infeasible regardless of topology")
	}
}

func TestSpanFamilyHFeasibleWithSingletons(t *testing.T) {
	// Lemma 4.2: every H_m is feasible; moreover each of the four nodes ends
	// in its own class after one iteration.
	for _, m := range []int{1, 2, 3, 10, 25} {
		rep := classify(t, config.SpanFamilyH(m))
		if !rep.Feasible() {
			t.Fatalf("H_%d should be feasible", m)
		}
		if rep.Iterations() != 1 {
			t.Fatalf("H_%d should separate after 1 iteration, took %d", m, rep.Iterations())
		}
		final := rep.FinalSnapshot()
		if final.NumClasses != 4 {
			t.Fatalf("H_%d should split into 4 singleton classes, got %d", m, final.NumClasses)
		}
	}
}

func TestSymmetricFamilySInfeasible(t *testing.T) {
	// Proposition 4.5 uses that every S_m is infeasible: the partition stops
	// at two classes of two nodes each.
	for _, m := range []int{1, 2, 5, 12} {
		rep := classify(t, config.SymmetricFamilyS(m))
		if rep.Feasible() {
			t.Fatalf("S_%d should be infeasible", m)
		}
		final := rep.FinalSnapshot()
		if final.NumClasses != 2 {
			t.Fatalf("S_%d should stabilize with 2 classes, got %d", m, final.NumClasses)
		}
		sizes := final.ClassSizes()
		if sizes[0] != 2 || sizes[1] != 2 {
			t.Fatalf("S_%d class sizes = %v, want [2 2]", m, sizes)
		}
	}
}

func TestLineFamilyGFeasibleCentreLeader(t *testing.T) {
	// Proposition 4.1: G_m is feasible and the central node b_{m+1} (index
	// 2m) ends up alone in its class after m iterations.
	for _, m := range []int{2, 3, 4, 6} {
		rep := classify(t, config.LineFamilyG(m))
		if !rep.Feasible() {
			t.Fatalf("G_%d should be feasible", m)
		}
		if rep.Leader != 2*m {
			t.Fatalf("G_%d leader = %d, want central node %d", m, rep.Leader, 2*m)
		}
		if rep.Iterations() != m {
			t.Fatalf("G_%d should need exactly %d iterations, took %d", m, m, rep.Iterations())
		}
	}
}

func TestEarlyCenterStarLeaderIsCentre(t *testing.T) {
	for _, n := range []int{3, 5, 9} {
		rep := classify(t, config.EarlyCenterStar(n, 2))
		if !rep.Feasible() || rep.Leader != 0 {
			t.Fatalf("early-centre star n=%d: feasible=%v leader=%d", n, rep.Feasible(), rep.Leader)
		}
	}
}

func TestTwoBlockCycleParity(t *testing.T) {
	// For even k the two-block cycle has a tag-preserving reflection with no
	// fixed vertex, so every node stays paired with its mirror image and the
	// configuration is infeasible. For odd k the reflection axis passes
	// through the middle node of each block; those two fixed nodes carry
	// different tags, and the middle node of the tag-0 block can be elected
	// (verified by hand for k=3: it becomes a singleton after 2 iterations).
	for _, k := range []int{2, 4, 6} {
		rep := classify(t, config.TwoBlockCycle(k))
		if rep.Feasible() {
			t.Fatalf("two-block cycle k=%d should be infeasible", k)
		}
	}
	rep := classify(t, config.TwoBlockCycle(3))
	if !rep.Feasible() {
		t.Fatalf("two-block cycle k=3 should be feasible")
	}
	if rep.Leader != 1 {
		t.Fatalf("two-block cycle k=3 leader = %d, want the middle tag-0 node 1", rep.Leader)
	}
	if rep.Iterations() != 2 {
		t.Fatalf("two-block cycle k=3 should classify in 2 iterations, took %d", rep.Iterations())
	}
}

func TestStaggeredConfigsFeasible(t *testing.T) {
	for _, n := range []int{2, 3, 7, 12} {
		rep := classify(t, config.StaggeredPath(n, 1))
		if !rep.Feasible() {
			t.Fatalf("staggered path n=%d should be feasible", n)
		}
		rep = classify(t, config.StaggeredClique(n))
		if !rep.Feasible() {
			t.Fatalf("staggered clique n=%d should be feasible", n)
		}
	}
}

func TestNormalizationDoesNotChangeVerdict(t *testing.T) {
	g := graph.Cycle(6)
	tags := []int{5, 5, 6, 7, 5, 6}
	shifted := config.MustNew(g, tags)
	norm := shifted.Normalized()
	a := classify(t, shifted)
	b := classify(t, norm)
	if a.Feasible() != b.Feasible() || a.Leader != b.Leader {
		t.Fatalf("normalization changed the verdict: %v/%d vs %v/%d",
			a.Decision, a.Leader, b.Decision, b.Leader)
	}
}

func TestIterationsBoundedByHalfN(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(24)
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: rng.Intn(4)}, rng)
		rep := classify(t, cfg)
		if rep.Iterations() > (n+1)/2 {
			t.Fatalf("classifier took %d iterations on n=%d (> ⌈n/2⌉)", rep.Iterations(), n)
		}
	}
}

func TestPartitionRefinementMonotone(t *testing.T) {
	// Observation 3.2 / Corollary 3.3: classes only split, never merge, and
	// the number of classes is non-decreasing.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(15)
		cfg := config.Random(n, 0.35, config.UniformRandomTags{Span: rng.Intn(3)}, rng)
		rep := classify(t, cfg)
		for j := 1; j < len(rep.Snapshots); j++ {
			prev, cur := rep.Snapshots[j-1], rep.Snapshots[j]
			if cur.NumClasses < prev.NumClasses {
				t.Fatalf("class count decreased: %d -> %d", prev.NumClasses, cur.NumClasses)
			}
			for v := 0; v < n; v++ {
				for w := 0; w < n; w++ {
					if prev.Classes[v] != prev.Classes[w] && cur.Classes[v] == cur.Classes[w] {
						t.Fatalf("nodes %d,%d merged at iteration %d", v, w, j)
					}
				}
			}
		}
	}
}

func TestRepresentativesBelongToTheirClass(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(14)
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: 2}, rng)
		rep := classify(t, cfg)
		for j, snap := range rep.Snapshots {
			if len(snap.Reps) != snap.NumClasses {
				t.Fatalf("iteration %d: %d reps for %d classes", j, len(snap.Reps), snap.NumClasses)
			}
			for k, r := range snap.Reps {
				if snap.Classes[r] != k+1 {
					t.Fatalf("iteration %d: rep %d of class %d is in class %d", j, r, k+1, snap.Classes[r])
				}
			}
		}
	}
}

func TestListsStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(14)
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: 3}, rng)
		rep := classify(t, cfg)

		if len(rep.Lists) != rep.Iterations()+1 {
			t.Fatalf("expected %d lists, got %d", rep.Iterations()+1, len(rep.Lists))
		}
		// L_1 = [(1, null)].
		first := rep.Lists[0]
		if first.Terminate || len(first.Entries) != 1 || first.Entries[0].OldClass != 1 || first.Entries[0].Label != nil {
			t.Fatalf("L_1 malformed: %s", first.String())
		}
		// The final list is the terminate list; intermediate lists are not.
		last := rep.Lists[len(rep.Lists)-1]
		if !last.Terminate {
			t.Fatalf("final list must be terminate")
		}
		for j := 0; j+1 < len(rep.Lists); j++ {
			if rep.Lists[j].Terminate {
				t.Fatalf("intermediate list L_%d must not be terminate", j+1)
			}
			// L_j has one entry per class at snapshot j-1.
			if rep.Lists[j].NumClasses() != rep.Snapshots[j].NumClasses && j > 0 {
				t.Fatalf("L_%d has %d entries for %d classes", j+1, rep.Lists[j].NumClasses(), rep.Snapshots[j].NumClasses)
			}
		}
	}
}

func TestLeaderIsUniqueSingleton(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	feasibleSeen := 0
	for trial := 0; trial < 200 && feasibleSeen < 40; trial++ {
		n := 2 + rng.Intn(12)
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: 2 + rng.Intn(3)}, rng)
		rep := classify(t, cfg)
		if !rep.Feasible() {
			continue
		}
		feasibleSeen++
		final := rep.FinalSnapshot()
		if rep.LeaderClass != final.SingletonClass() {
			t.Fatalf("leader class %d is not the smallest singleton %d", rep.LeaderClass, final.SingletonClass())
		}
		count := 0
		for v := 0; v < n; v++ {
			if final.Classes[v] == rep.LeaderClass {
				count++
				if v != rep.Leader {
					t.Fatalf("node %d shares the leader class with leader %d", v, rep.Leader)
				}
			}
		}
		if count != 1 {
			t.Fatalf("leader class has %d members", count)
		}
	}
	if feasibleSeen == 0 {
		t.Fatalf("workload produced no feasible configurations; weak test")
	}
}

func TestInfeasibleRunsEndWithStablePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	infeasibleSeen := 0
	for trial := 0; trial < 200 && infeasibleSeen < 30; trial++ {
		n := 2 + rng.Intn(10)
		cfg := config.Random(n, 0.4, config.BlockTags{Blocks: 1 + rng.Intn(2)}, rng)
		rep := classify(t, cfg)
		if rep.Feasible() {
			continue
		}
		infeasibleSeen++
		// The last iteration made no progress and produced no singleton.
		k := len(rep.Snapshots)
		last, prev := rep.Snapshots[k-1], rep.Snapshots[k-2]
		if last.NumClasses != prev.NumClasses {
			t.Fatalf("infeasible verdict but partition still changing")
		}
		if last.SingletonClass() != 0 {
			t.Fatalf("infeasible verdict with a singleton class present")
		}
	}
	if infeasibleSeen == 0 {
		t.Fatalf("workload produced no infeasible configurations; weak test")
	}
}

func TestStatsCountersPopulated(t *testing.T) {
	rep := classify(t, config.SpanFamilyH(3))
	if rep.Stats.Iterations != rep.Iterations() {
		t.Fatalf("stats iterations %d != %d", rep.Stats.Iterations, rep.Iterations())
	}
	if rep.Stats.TripleInsertions == 0 || rep.Stats.LabelComparisons == 0 {
		t.Fatalf("stats counters not populated: %+v", rep.Stats)
	}
}

func TestSummaryAndHelpers(t *testing.T) {
	rep := classify(t, config.SpanFamilyH(2))
	s := rep.Summary()
	for _, want := range []string{"decision:      feasible", "L_1 =", "leader:", "classes:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	groups := rep.PartitionAfter(rep.Iterations())
	if len(groups) != 4 {
		t.Fatalf("H_2 should end with 4 groups, got %v", groups)
	}
	if rep.SameClass(0, 0, 3) != true {
		t.Fatalf("all nodes share class after Init-Aug")
	}
	if rep.SameClass(rep.Iterations(), 0, 3) {
		t.Fatalf("nodes 0 and 3 must be separated at the end")
	}
	if c := rep.ClassOf(0, 2); c != 1 {
		t.Fatalf("ClassOf(0,2) = %d, want 1", c)
	}
	ok, err := IsFeasible(config.SpanFamilyH(1))
	if err != nil || !ok {
		t.Fatalf("IsFeasible wrapper broken: %v %v", ok, err)
	}
	if _, err := IsFeasible(nil); err == nil {
		t.Fatalf("IsFeasible(nil) should error")
	}
}

func TestPropertyVerdictInvariantUnderTagShift(t *testing.T) {
	// Shifting all tags by a constant must not change feasibility, the
	// leader, or the number of iterations (nodes cannot see the global
	// clock).
	f := func(seed int64, sz, span, shift uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%12) + 2
		base := config.Random(n, 0.3, config.UniformRandomTags{Span: int(span % 5)}, rng)
		tags := base.Tags()
		for i := range tags {
			tags[i] += int(shift%7) + 1
		}
		shifted := config.MustNew(base.Graph(), tags)
		a, err1 := Classify(base)
		b, err2 := Classify(shifted)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Feasible() == b.Feasible() && a.Leader == b.Leader && a.Iterations() == b.Iterations()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatalf("tag-shift invariance violated: %v", err)
	}
}

func TestPropertyVerdictInvariantUnderRelabeling(t *testing.T) {
	// Renaming the nodes (applying a permutation to the graph and the tag
	// vector) must not change feasibility, the number of iterations, or the
	// multiset of final class sizes: the classifier only depends on the
	// structure of the configuration, not on node identities.
	f := func(seed int64, sz, span uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%12) + 2
		base := config.Random(n, 0.3, config.UniformRandomTags{Span: int(span % 4)}, rng)

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

		a, err1 := Classify(base)
		b, err2 := Classify(permuted)
		if err1 != nil || err2 != nil {
			return false
		}
		if a.Feasible() != b.Feasible() || a.Iterations() != b.Iterations() {
			return false
		}
		return sizeHistogram(a.FinalSnapshot().ClassSizes()) == sizeHistogram(b.FinalSnapshot().ClassSizes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatalf("relabeling invariance violated: %v", err)
	}
}

// sizeHistogram encodes a multiset of class sizes as a canonical string.
func sizeHistogram(sizes []int) string {
	counts := make(map[int]int)
	max := 0
	for _, s := range sizes {
		counts[s]++
		if s > max {
			max = s
		}
	}
	var sb strings.Builder
	for s := 1; s <= max; s++ {
		if counts[s] > 0 {
			sb.WriteString(strings.Repeat("x", counts[s]))
			sb.WriteString(":")
		} else {
			sb.WriteString(":")
		}
	}
	return sb.String()
}

func TestTwoBlockCycleHandTrace(t *testing.T) {
	// Regression test against a fully hand-computed run on the two-block
	// cycle with k=3 (6 nodes, tags 0,0,0,1,1,1 around the cycle).
	//
	// Iteration 1: nodes 0 and 2 hear their tag-1 neighbour (same label),
	// nodes 1 and 4 hear nothing (their neighbours transmit simultaneously
	// with them), nodes 3 and 5 hear their tag-0 neighbour. Partition:
	// {0,2}, {1,4}, {3,5}.
	//
	// Iteration 2: node 1 now hears a collision of two class-1 neighbours
	// while node 4 hears a collision of two class-3 neighbours, so the pair
	// {1,4} splits and node 1 becomes the first singleton.
	rep := classify(t, config.TwoBlockCycle(3))

	after1 := rep.Snapshots[1]
	wantGroups1 := [][]int{{0, 2}, {1, 4}, {3, 5}}
	for _, grp := range wantGroups1 {
		for _, v := range grp[1:] {
			if after1.Classes[v] != after1.Classes[grp[0]] {
				t.Fatalf("iteration 1: nodes %v should share a class: %v", grp, after1.Classes)
			}
		}
	}
	if after1.NumClasses != 3 {
		t.Fatalf("iteration 1 should have 3 classes, got %d", after1.NumClasses)
	}

	after2 := rep.Snapshots[2]
	if after2.NumClasses != 4 {
		t.Fatalf("iteration 2 should have 4 classes, got %d", after2.NumClasses)
	}
	if after2.Classes[1] == after2.Classes[4] {
		t.Fatalf("iteration 2 should split nodes 1 and 4")
	}
	if after2.Classes[0] != after2.Classes[2] || after2.Classes[3] != after2.Classes[5] {
		t.Fatalf("iteration 2 should keep the mirror pairs together: %v", after2.Classes)
	}
	if rep.Leader != 1 || !rep.Feasible() {
		t.Fatalf("the middle tag-0 node should be the designated leader")
	}
}

func TestEarlyCenterStarSeparatesInOneIteration(t *testing.T) {
	for _, n := range []int{3, 6, 10} {
		rep := classify(t, config.EarlyCenterStar(n, 2))
		if rep.Iterations() != 1 {
			t.Fatalf("n=%d: the early-centre star should separate the centre in one iteration, took %d",
				n, rep.Iterations())
		}
		after := rep.Snapshots[1]
		if after.NumClasses != 2 {
			t.Fatalf("n=%d: expected exactly two classes (centre, leaves), got %d", n, after.NumClasses)
		}
	}
}

func TestPropertyClassSizesSumToN(t *testing.T) {
	f := func(seed int64, sz, span uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%14) + 1
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: int(span % 4)}, rng)
		rep, err := Classify(cfg)
		if err != nil {
			return false
		}
		for _, snap := range rep.Snapshots {
			total := 0
			for _, s := range snap.ClassSizes() {
				if s <= 0 {
					return false
				}
				total += s
			}
			if total != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("class sizes property violated: %v", err)
	}
}

func TestPropertyListLabelsReferenceValidBlocks(t *testing.T) {
	// Every triple (a, b, c) stored in a list entry of L_{j+1} must reference
	// a transmission block a that existed in phase j and a round b within
	// 1..2σ+1 — otherwise the canonical DRIP could never match it.
	f := func(seed int64, sz, span uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%12) + 2
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: int(span%4) + 1}, rng)
		rep, err := Classify(cfg)
		if err != nil {
			return false
		}
		sigma := rep.Config.Span()
		for j := 1; j < len(rep.Lists); j++ {
			cur := rep.Lists[j]
			if cur.Terminate {
				continue
			}
			prevClasses := rep.Lists[j-1].NumClasses()
			for _, entry := range cur.Entries {
				if entry.OldClass < 1 || entry.OldClass > prevClasses {
					return false
				}
				for _, tr := range entry.Label {
					if tr.Class < 1 || tr.Class > prevClasses {
						return false
					}
					if tr.Round < 1 || tr.Round > 2*sigma+1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("list label validity violated: %v", err)
	}
}
