package config

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"anonradio/internal/graph"
)

func TestNewValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := New(g, []int{0, 1, 2}); err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
	if _, err := New(nil, nil); err == nil {
		t.Fatalf("nil graph should be rejected")
	}
	if _, err := New(g, []int{0, 1}); err == nil {
		t.Fatalf("size mismatch should be rejected")
	}
	if _, err := New(g, []int{0, -1, 2}); err == nil {
		t.Fatalf("negative tag should be rejected")
	}
	if _, err := New(graph.New(0), []int{}); err == nil {
		t.Fatalf("empty configuration should be rejected")
	}
	disconnected := graph.New(3)
	disconnected.AddEdge(0, 1)
	if _, err := New(disconnected, []int{0, 0, 0}); err == nil {
		t.Fatalf("disconnected graph should be rejected")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNew with invalid input should panic")
		}
	}()
	MustNew(graph.Path(2), []int{0})
}

func TestNewCopiesInputs(t *testing.T) {
	g := graph.Path(3)
	tags := []int{0, 1, 2}
	c := MustNew(g, tags)
	tags[0] = 99
	g.AddEdge(0, 2)
	if c.Tag(0) != 0 {
		t.Fatalf("config should copy tags")
	}
	if c.Graph().HasEdge(0, 2) {
		t.Fatalf("config should copy the graph")
	}
}

func TestAccessors(t *testing.T) {
	c := MustNew(graph.Cycle(4), []int{3, 1, 4, 1})
	if c.N() != 4 {
		t.Fatalf("N=%d", c.N())
	}
	if c.MinTag() != 1 || c.MaxTag() != 4 || c.Span() != 3 {
		t.Fatalf("min/max/span = %d/%d/%d", c.MinTag(), c.MaxTag(), c.Span())
	}
	if c.MaxDegree() != 2 {
		t.Fatalf("max degree = %d", c.MaxDegree())
	}
	got := c.Tags()
	got[0] = 77
	if c.Tag(0) != 3 {
		t.Fatalf("Tags() must return a copy")
	}
	hist := c.TagHistogram()
	if hist[1] != 2 || hist[3] != 1 || hist[4] != 1 {
		t.Fatalf("tag histogram wrong: %v", hist)
	}
	with1 := c.NodesWithTag(1)
	if len(with1) != 2 || with1[0] != 1 || with1[1] != 3 {
		t.Fatalf("NodesWithTag(1) = %v", with1)
	}
	if c.NodesWithTag(9) != nil {
		t.Fatalf("NodesWithTag for absent tag should be nil")
	}
}

func TestNormalized(t *testing.T) {
	c := MustNew(graph.Path(3), []int{2, 5, 3})
	if c.IsNormalized() {
		t.Fatalf("configuration with min tag 2 should not be normalized")
	}
	n := c.Normalized()
	if !n.IsNormalized() || n.MinTag() != 0 {
		t.Fatalf("Normalized did not shift tags: %v", n.Tags())
	}
	want := []int{0, 3, 1}
	for i, tag := range n.Tags() {
		if tag != want[i] {
			t.Fatalf("normalized tags = %v, want %v", n.Tags(), want)
		}
	}
	if n.Span() != c.Span() {
		t.Fatalf("normalization must preserve span")
	}
	// Already-normalized configurations are returned unchanged.
	again := n.Normalized()
	if again != n {
		t.Fatalf("Normalized on a normalized config should return the receiver")
	}
	// The original must not be mutated.
	if c.Tag(0) != 2 {
		t.Fatalf("Normalized mutated the original")
	}
}

func TestCloneAndEqual(t *testing.T) {
	c := MustNew(graph.Cycle(5), []int{0, 1, 2, 3, 4})
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatalf("clone should equal original")
	}
	e := MustNew(graph.Cycle(5), []int{0, 1, 2, 3, 5})
	if c.Equal(e) {
		t.Fatalf("different tags should not be equal")
	}
	f := MustNew(graph.Path(5), []int{0, 1, 2, 3, 4})
	if c.Equal(f) {
		t.Fatalf("different graphs should not be equal")
	}
	g := MustNew(graph.Path(4), []int{0, 1, 2, 3})
	if c.Equal(g) {
		t.Fatalf("different sizes should not be equal")
	}
}

func TestValidate(t *testing.T) {
	c := MustNew(graph.Path(4), []int{0, 1, 0, 2})
	if err := c.Validate(); err != nil {
		t.Fatalf("valid config failed validation: %v", err)
	}
	bad := NewUnchecked(graph.New(2), []int{0, 0}) // disconnected: no edge
	if err := bad.Validate(); err == nil {
		t.Fatalf("disconnected config should fail validation")
	}
	neg := NewUnchecked(graph.Path(2), []int{0, -3})
	if err := neg.Validate(); err == nil {
		t.Fatalf("negative tag should fail validation")
	}
}

func TestStringAndDescribe(t *testing.T) {
	c := SpanFamilyH(2)
	s := c.String()
	if !strings.Contains(s, "H_2") || !strings.Contains(s, "n=4") || !strings.Contains(s, "σ=3") {
		t.Fatalf("String() = %q", s)
	}
	d := c.Describe()
	if !strings.Contains(d, "node 0: tag=2") || !strings.Contains(d, "node 3: tag=3") {
		t.Fatalf("Describe missing node lines:\n%s", d)
	}
	anon := MustNew(graph.Path(2), []int{0, 1})
	if !strings.HasPrefix(anon.String(), "config{") {
		t.Fatalf("unnamed config string: %q", anon.String())
	}
}

func TestLineFamilyG(t *testing.T) {
	for _, m := range []int{2, 3, 5} {
		c := LineFamilyG(m)
		n := 4*m + 1
		if c.N() != n {
			t.Fatalf("G_%d should have %d nodes, got %d", m, n, c.N())
		}
		if c.Span() != 1 {
			t.Fatalf("G_%d span = %d, want 1", m, c.Span())
		}
		if !c.Graph().IsTree() || c.Graph().MaxDegree() != 2 {
			t.Fatalf("G_%d should be a path", m)
		}
		// a-nodes (first m) and c-nodes (last m) have tag 0, b-nodes tag 1.
		for i := 0; i < m; i++ {
			if c.Tag(i) != 0 || c.Tag(n-1-i) != 0 {
				t.Fatalf("G_%d: end tags wrong at %d/%d", m, i, n-1-i)
			}
		}
		for i := m; i < 3*m+1; i++ {
			if c.Tag(i) != 1 {
				t.Fatalf("G_%d: b node %d has tag %d, want 1", m, i, c.Tag(i))
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("G_%d invalid: %v", m, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("LineFamilyG(1) should panic")
		}
	}()
	LineFamilyG(1)
}

func TestSpanFamilyH(t *testing.T) {
	for _, m := range []int{1, 2, 7} {
		c := SpanFamilyH(m)
		if c.N() != 4 {
			t.Fatalf("H_%d should have 4 nodes", m)
		}
		want := []int{m, 0, 0, m + 1}
		for v, w := range want {
			if c.Tag(v) != w {
				t.Fatalf("H_%d tags = %v, want %v", m, c.Tags(), want)
			}
		}
		if c.Span() != m+1 {
			t.Fatalf("H_%d span = %d, want %d", m, c.Span(), m+1)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("SpanFamilyH(0) should panic")
		}
	}()
	SpanFamilyH(0)
}

func TestSymmetricFamilyS(t *testing.T) {
	for _, m := range []int{1, 4} {
		c := SymmetricFamilyS(m)
		if c.N() != 4 || c.Span() != m {
			t.Fatalf("S_%d: n=%d span=%d", m, c.N(), c.Span())
		}
		if c.Tag(0) != m || c.Tag(3) != m || c.Tag(1) != 0 || c.Tag(2) != 0 {
			t.Fatalf("S_%d tags = %v", m, c.Tags())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("SymmetricFamilyS(0) should panic")
		}
	}()
	SymmetricFamilyS(0)
}

func TestSmallFamilies(t *testing.T) {
	if c := SingleNode(); c.N() != 1 || c.Span() != 0 {
		t.Fatalf("SingleNode wrong: %v", c)
	}
	if c := SymmetricPair(); c.N() != 2 || c.Span() != 0 {
		t.Fatalf("SymmetricPair wrong: %v", c)
	}
	if c := AsymmetricPair(3); c.N() != 2 || c.Span() != 3 {
		t.Fatalf("AsymmetricPair wrong: %v", c)
	}
	if c := UniformTags(graph.Cycle(5)); c.Span() != 0 || c.N() != 5 {
		t.Fatalf("UniformTags wrong: %v", c)
	}
	if c := StaggeredPath(5, 2); c.Span() != 8 || c.Tag(3) != 6 {
		t.Fatalf("StaggeredPath wrong: %v tags=%v", c, c.Tags())
	}
	if c := StaggeredClique(4); c.Span() != 3 || c.MaxDegree() != 3 {
		t.Fatalf("StaggeredClique wrong: %v", c)
	}
	if c := EarlyCenterStar(6, 4); c.Tag(0) != 0 || c.Tag(5) != 4 || c.MaxDegree() != 5 {
		t.Fatalf("EarlyCenterStar wrong: %v tags=%v", c, c.Tags())
	}
	if c := TwoBlockCycle(3); c.N() != 6 || c.Span() != 1 {
		t.Fatalf("TwoBlockCycle wrong: %v", c)
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
	mustPanic("AsymmetricPair(0)", func() { AsymmetricPair(0) })
	mustPanic("StaggeredPath(0,1)", func() { StaggeredPath(0, 1) })
	mustPanic("StaggeredClique(0)", func() { StaggeredClique(0) })
	mustPanic("EarlyCenterStar(1,1)", func() { EarlyCenterStar(1, 1) })
	mustPanic("EarlyCenterStar(3,0)", func() { EarlyCenterStar(3, 0) })
	mustPanic("TwoBlockCycle(1)", func() { TwoBlockCycle(1) })
	mustPanic("NewUnchecked mismatch", func() { NewUnchecked(graph.Path(2), []int{0}) })
}

func TestTagStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnectedGNP(20, 0.2, rng)

	cases := []TagStrategy{
		UniformRandomTags{Span: 5},
		DistinctRandomTags{},
		BlockTags{Blocks: 3},
		BFSLayerTags{},
		SingleEarlyTags{Late: 4},
	}
	for _, s := range cases {
		tags := s.Assign(g, rng)
		if len(tags) != g.N() {
			t.Fatalf("%s: wrong tag count %d", s.Name(), len(tags))
		}
		for v, tag := range tags {
			if tag < 0 {
				t.Fatalf("%s: negative tag at %d", s.Name(), v)
			}
		}
		if s.Name() == "" {
			t.Fatalf("strategy has empty name")
		}
	}
}

func TestUniformRandomTagsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Complete(50)
	tags := UniformRandomTags{Span: 3}.Assign(g, rng)
	for _, tag := range tags {
		if tag < 0 || tag > 3 {
			t.Fatalf("tag %d out of range [0,3]", tag)
		}
	}
}

func TestDistinctRandomTagsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Path(10)
	tags := DistinctRandomTags{}.Assign(g, rng)
	seen := make(map[int]bool)
	for _, tag := range tags {
		if tag < 0 || tag >= 10 || seen[tag] {
			t.Fatalf("not a permutation: %v", tags)
		}
		seen[tag] = true
	}
}

func TestBlockTagsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Path(9)
	tags := BlockTags{Blocks: 3}.Assign(g, rng)
	for i, tag := range tags {
		if tag != i/3 {
			t.Fatalf("block tags = %v", tags)
		}
	}
	// Degenerate block count falls back to a single block.
	tags = BlockTags{Blocks: 0}.Assign(g, rng)
	for _, tag := range tags {
		if tag != 0 {
			t.Fatalf("blocks=0 should collapse to all-zero tags: %v", tags)
		}
	}
}

func TestBFSLayerTags(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Path(5)
	tags := BFSLayerTags{}.Assign(g, rng)
	for i, tag := range tags {
		if tag != i {
			t.Fatalf("BFS layer tags on a path should equal the index: %v", tags)
		}
	}
}

func TestSingleEarlyTags(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.Cycle(8)
	tags := SingleEarlyTags{Late: 5}.Assign(g, rng)
	zeros := 0
	for _, tag := range tags {
		switch tag {
		case 0:
			zeros++
		case 5:
		default:
			t.Fatalf("unexpected tag %d", tag)
		}
	}
	if zeros != 1 {
		t.Fatalf("exactly one node should have tag 0, got %d", zeros)
	}
	// Late < 1 falls back to 1.
	tags = SingleEarlyTags{Late: 0}.Assign(g, rng)
	max := 0
	for _, tag := range tags {
		if tag > max {
			max = tag
		}
	}
	if max != 1 {
		t.Fatalf("fallback late tag should be 1, got max %d", max)
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := Random(15, 0.2, UniformRandomTags{Span: 4}, rng)
	if c.N() != 15 || !c.IsNormalized() {
		t.Fatalf("Random config wrong: %v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Random config invalid: %v", err)
	}
	tc := RandomTreeConfig(12, DistinctRandomTags{}, rng)
	if !tc.Graph().IsTree() || tc.N() != 12 {
		t.Fatalf("RandomTreeConfig not a tree")
	}
	batch := Batch(5, 8, 0.3, BlockTags{Blocks: 2}, rng)
	if len(batch) != 5 {
		t.Fatalf("Batch size wrong")
	}
	for _, b := range batch {
		if err := b.Validate(); err != nil {
			t.Fatalf("batch config invalid: %v", err)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	configs := []*Config{
		SingleNode(),
		SymmetricPair(),
		SpanFamilyH(3),
		LineFamilyG(2),
		StaggeredClique(5),
		Random(10, 0.3, UniformRandomTags{Span: 6}, rng),
	}
	for i, c := range configs {
		s := c.Marshal()
		d, err := Unmarshal(s)
		if err != nil {
			t.Fatalf("config %d decode failed: %v\n%s", i, err, s)
		}
		if !c.Equal(d) {
			t.Fatalf("config %d round-trip mismatch:\n%s\nvs\n%s", i, c.Describe(), d.Describe())
		}
		if c.Name != "" && d.Name == "" {
			t.Fatalf("config %d lost its name in round trip", i)
		}
	}
}

// decodeErrorCases are texts Unmarshal must reject; they also seed
// FuzzParseConfig.
var decodeErrorCases = []string{
	"",                            // empty
	"tag 0 1",                     // tag before nodes
	"edge 0 1",                    // edge before nodes
	"nodes 2\nnodes 2",            // duplicate nodes
	"nodes x",                     // bad count
	"nodes 2\ntag 0",              // short tag
	"nodes 2\ntag 5 1\nedge 0 1",  // out-of-range tag node
	"nodes 2\ntag 0 -1\nedge 0 1", // negative tag
	"nodes 2\ntag 0 1\ntag 0 2",   // duplicate tag
	"nodes 2\nedge 0 0",           // self loop
	"nodes 2\nedge 0 9",           // out of range edge
	"nodes 2\nedge 0",             // short edge
	"nodes 2\nbogus 1",            // unknown directive
	"nodes 3\nedge 0 1",           // disconnected -> New fails
	"name a b\nnodes 2\nedge 0 1", // name arity
	"nodes 2\ntag a b\nedge 0 1",  // non-numeric tag
	"nodes 2\nedge a b",           // non-numeric edge
	"nodes 0",                     // empty configuration
}

func TestDecodeErrors(t *testing.T) {
	for i, c := range decodeErrorCases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d (%q): expected error", i, c)
		}
	}
}

func TestDecodeDefaultsAndName(t *testing.T) {
	src := "# demo\nname demo_cfg\nnodes 3\ntag 2 5\nedge 0 1\nedge 1 2\n"
	c, err := Unmarshal(src)
	if err != nil {
		t.Fatalf("decode failed: %v", err)
	}
	if c.Name != "demo_cfg" {
		t.Fatalf("name = %q", c.Name)
	}
	if c.Tag(0) != 0 || c.Tag(1) != 0 || c.Tag(2) != 5 {
		t.Fatalf("tags = %v", c.Tags())
	}
}

func TestDOT(t *testing.T) {
	c := SpanFamilyH(1)
	dot := c.DOT()
	if !strings.Contains(dot, "graph H_1 {") {
		t.Fatalf("DOT header wrong: %q", dot)
	}
	if !strings.Contains(dot, "(t=2)") || !strings.Contains(dot, "n0 -- n1;") {
		t.Fatalf("DOT missing labels/edges:\n%s", dot)
	}
	anon := MustNew(graph.Path(2), []int{0, 1})
	if !strings.Contains(anon.DOT(), "graph config {") {
		t.Fatalf("unnamed DOT should default to config")
	}
	weird := MustNew(graph.Path(2), []int{0, 1})
	weird.Name = "123!!!"
	if !strings.Contains(weird.DOT(), "graph _23___ {") {
		t.Fatalf("sanitized DOT name wrong: %q", weird.DOT())
	}
}

func TestPropertyRoundTripRandomConfigs(t *testing.T) {
	f := func(seed int64, sz uint8, span uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%20) + 1
		c := Random(n, 0.25, UniformRandomTags{Span: int(span % 8)}, rng)
		d, err := Unmarshal(c.Marshal())
		if err != nil {
			return false
		}
		return c.Equal(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatalf("round-trip property failed: %v", err)
	}
}

func TestPropertyNormalizationInvariants(t *testing.T) {
	f := func(seed int64, sz uint8, shift uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%15) + 2
		base := Random(n, 0.3, UniformRandomTags{Span: 5}, rng)
		// Shift all tags up by a constant and re-normalize.
		tags := base.Tags()
		for i := range tags {
			tags[i] += int(shift % 10)
		}
		shifted := MustNew(base.Graph(), tags)
		norm := shifted.Normalized()
		return norm.Span() == base.Span() && norm.MinTag() == 0 && norm.MaxTag() == base.MaxTag()-base.MinTag()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("normalization property failed: %v", err)
	}
}
