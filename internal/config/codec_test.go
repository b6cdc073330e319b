package config

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"unicode"

	"anonradio/internal/graph"
)

// checkAgainstReference asserts that the codec agrees with the reference
// codec of reference_test.go on text s: the same verdict, the same error
// text, an Equal configuration with the same Name, a byte-identical Marshal,
// and a Marshal that parses back — also once the text itself is the name.
func checkAgainstReference(t *testing.T, s string) {
	t.Helper()
	got, err := Unmarshal(s)
	if errors.Is(err, errTextTooShort) {
		// No text this short connects that many nodes, and the reference
		// would allocate for all of them before finding out.
		return
	}
	want, refErr := referenceUnmarshal(s)
	switch {
	case errors.Is(refErr, bufio.ErrTooLong):
		return // the reference's 16 MiB line cap
	case (err == nil) != (refErr == nil):
		t.Fatalf("%q: Unmarshal error %v, reference error %v", s, err, refErr)
	case err != nil:
		if err.Error() != refErr.Error() {
			t.Fatalf("%q: error %q, reference %q", s, err, refErr)
		}
		return
	}
	if !got.Equal(want) || got.Name != want.Name {
		t.Fatalf("%q: parsed\n%s (name %q), reference\n%s (name %q)", s, got.Describe(), got.Name, want.Describe(), want.Name)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%q: parsed configuration invalid: %v", s, err)
	}
	text := got.Marshal()
	if ref := referenceMarshal(got); text != ref {
		t.Fatalf("%q: Marshal\n%s\nreference\n%s", s, text, ref)
	}
	if back, err := Unmarshal(text); err != nil || !back.Equal(got) || back.Name != got.Name {
		t.Fatalf("%q: Marshal output does not parse back: %v\n%s", s, err, text)
	}

	got.Name = s
	text = got.Marshal()
	back, err := Unmarshal(text)
	if err != nil || !back.Equal(got) {
		t.Fatalf("name %q: Marshal output does not parse back: %v\n%s", s, err, text)
	}
	if strings.IndexFunc(back.Name, unicode.IsSpace) >= 0 || len(back.Name) > len(s) {
		t.Fatalf("name %q read back as %q", s, back.Name)
	}
	if strings.IndexFunc(s, func(r rune) bool { return r != ' ' && unicode.IsSpace(r) }) < 0 {
		if ref := referenceMarshal(got); text != ref {
			t.Fatalf("name %q: Marshal\n%s\nreference\n%s", s, text, ref)
		}
	}
}

// codecSeeds are FuzzParseConfig's seed corpus: the decode error cases,
// Marshal output of the configuration families, and spellings other than
// Marshal's.
func codecSeeds() []string {
	seeds := append([]string(nil), decodeErrorCases...)
	rng := rand.New(rand.NewSource(8))
	for _, c := range []*Config{
		SingleNode(), SymmetricPair(), AsymmetricPair(3), SpanFamilyH(3), LineFamilyG(2),
		SymmetricFamilyS(2), StaggeredPath(6, 2), StaggeredClique(12), EarlyCenterStar(5, 2),
		TwoBlockCycle(3), Random(10, 0.3, UniformRandomTags{Span: 6}, rng),
	} {
		seeds = append(seeds, c.Marshal())
	}
	return append(seeds,
		"name crlf\r\nnodes 3\r\ntag 1 2\r\nedge 0 1\r\nedge 1 2\r\n",
		"nodes\t3\ntag\t1\t2\nedge 0\t1\n\tedge  1 2  \n",
		"nodes 3\ntag 1 2\nedge 0 1\nedge 1 2\n",
		"nodes 3 \nedge 0 1\nedge 1 2\vtag\n",
		"nodes 003\ntag 01 007\nedge 00 1\nedge 1 02\n",
		"nodes +3\ntag +1 +2\nedge +0 1\nedge 1 +2\n",
		"nodes 3\ntag -0 -0\nedge -0 1\nedge 1 2\n",
		"nodes 3\ntag 1 -2\nedge 0 1\nedge 1 2\n",
		"nodes 3\nedge 0 1\nedge 0 1\nedge 1 0\nedge 2 1\n",
		"# leading comment\n\nnodes 2\n  # indented comment\n#edge 0 0\nedge 1 0\n\n",
		"name a\nname b\nnodes 1\n",
		"name x\nnodes 1\n",
		"name \xc2\nnodes 2\nedge 0 1\n",
		"nodes 2\nedge 0 1\nedge 0 1 2\n",
		"nodes 2\nedge 0 1\ntag 0 99999999999999999999\n",
		"nodes 2\nedge 0 1234567890\n",
		"nodes 50000000\n",
		"nodes 3\nedge 0 1",
		"nodes 4\nedge 0 1",
	)
}

// FuzzParseConfig checks the one-pass codec against the scanner-based
// reference it replaced (see checkAgainstReference).
func FuzzParseConfig(f *testing.F) {
	for _, s := range codecSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkAgainstReference)
}

// randomText writes a short configuration text: a connected graph's edge
// lines and some tag lines in random order, spelled with variations Marshal
// never writes (other white space, CRLF, signs, leading zeros, comments, a
// name), and in half the texts one fault: a
// missing or extra field, a junk number, a self-loop, an out-of-range or
// duplicate line, an unknown directive.
func randomText(rng *rand.Rand) string {
	seps := []string{" ", " ", " ", "  ", "\t", "\u00a0", "\v", "\u0085", "\u2028"}
	sep := func() string {
		if rng.Intn(3) == 0 {
			return seps[rng.Intn(len(seps))]
		}
		return " "
	}
	num := func(x int) string {
		switch rng.Intn(10) {
		case 0:
			return "0" + strconv.Itoa(x)
		case 1:
			return "+" + strconv.Itoa(x)
		}
		return strconv.Itoa(x)
	}
	n := rng.Intn(7) + 1
	var lines [][]string
	for v := 1; v < n; v++ {
		a, b := rng.Intn(v), v
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		lines = append(lines, []string{"edge", num(a), num(b)})
		if rng.Intn(3) == 0 {
			lines = append(lines, []string{"edge", num(v), num((v + 1 + rng.Intn(n-1)) % n)})
		}
	}
	for _, v := range rng.Perm(n)[:rng.Intn(n+1)] {
		lines = append(lines, []string{"tag", num(v), num(rng.Intn(9))})
	}
	if rng.Intn(3) == 0 {
		lines = append(lines, []string{"name", "cfg-" + strconv.Itoa(rng.Intn(99))})
	}
	if rng.Intn(3) == 0 {
		lines = append(lines, []string{"#", "a", "comment"}, []string{})
	}
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	lines = append([][]string{{"nodes", num(n)}}, lines...)
	if rng.Intn(2) == 0 {
		i := rng.Intn(len(lines))
		switch l := lines[i]; rng.Intn(8) {
		case 0:
			lines[i] = l[:rng.Intn(len(l)+1)]
		case 1:
			lines[i] = append(l, "1")
		case 2:
			if len(l) > 1 {
				l = append([]string(nil), l...)
				l[1+rng.Intn(len(l)-1)] = []string{"x", "-1", "-0", "99999999999999999999", "1_0", "\xc2"}[rng.Intn(6)]
				lines[i] = l
			}
		case 3:
			lines[i] = []string{"edge", num(i % n), num(i % n)}
		case 4:
			lines[i] = []string{"tag", num(n), "0"}
		case 5:
			lines = append(lines, lines[i])
		case 6:
			lines[i] = []string{"bogus", "1"}
		case 7:
			lines = append(lines[:i], lines[i+1:]...)
		}
	}
	var sb strings.Builder
	for _, l := range lines {
		if rng.Intn(8) == 0 {
			sb.WriteString(sep())
		}
		for i, f := range l {
			if i > 0 {
				sb.WriteString(sep())
			}
			sb.WriteString(f)
		}
		if rng.Intn(8) == 0 {
			sb.WriteString(sep())
		}
		if rng.Intn(5) == 0 {
			sb.WriteByte('\r')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestPropertyCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	accepted := 0
	for i := 0; i < 3000; i++ {
		s := randomText(rng)
		checkAgainstReference(t, s)
		if _, err := Unmarshal(s); err == nil {
			accepted++
		}
	}
	// The generator must reach the accepting paths, not only the errors.
	if accepted < 900 {
		t.Fatalf("only %d of 3000 random texts parsed", accepted)
	}
}

func TestMarshalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	configs := []*Config{StaggeredClique(96), SpanFamilyH(40), LineFamilyG(6)}
	for i := 0; i < 20; i++ {
		configs = append(configs, Random(2+rng.Intn(60), 0.2, UniformRandomTags{Span: 1000}, rng))
	}
	// Unvalidated configurations marshal as the reference did too.
	configs = append(configs, NewUnchecked(graph.New(0), nil), NewUnchecked(graph.Path(2), []int{-5, 1 << 40}))
	for _, c := range configs {
		if got, want := c.Marshal(), referenceMarshal(c); got != want {
			t.Fatalf("%s: Marshal\n%s\nreference\n%s", c, got, want)
		}
		var sb strings.Builder
		if err := c.Encode(&sb); err != nil || sb.String() != c.Marshal() {
			t.Fatalf("%s: Encode = %q, %v; want Marshal's text", c, sb.String(), err)
		}
	}
}

// TestPropertyWhitespaceNamesRoundTrip: a name with any white space marshals
// to a text that parses back to an Equal configuration, with each white-space
// rune read back as '_'.
func TestPropertyWhitespaceNamesRoundTrip(t *testing.T) {
	spaces := []rune{' ', '\t', '\n', '\r', '\v', '\f', 0x85, 0xa0, 0x2028, 0x3000}
	f := func(seed int64, parts []string) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Random(2+rng.Intn(8), 0.4, UniformRandomTags{Span: 3}, rng)
		var name, want strings.Builder
		for _, p := range parts {
			sp := spaces[rng.Intn(len(spaces))]
			name.WriteString(p)
			name.WriteRune(sp)
			for _, r := range p {
				if unicode.IsSpace(r) {
					r = '_'
				}
				want.WriteRune(r)
			}
			want.WriteByte('_')
		}
		c.Name = name.String()
		back, err := Unmarshal(c.Marshal())
		return err == nil && back.Equal(c) && back.Name == want.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadMatchesUnmarshal(t *testing.T) {
	for _, s := range codecSeeds() {
		want, wantErr := Unmarshal(s)
		for _, r := range []io.Reader{strings.NewReader(s), iotest.OneByteReader(strings.NewReader(s))} {
			got, err := Read(r)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && (!got.Equal(want) || got.Name != want.Name) {
				t.Fatalf("%q: Read error %v, Unmarshal error %v", s, err, wantErr)
			}
		}
	}
	boom := errors.New("boom")
	if _, err := Read(iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Fatalf("Read does not report the reader's error: %v", err)
	}
}

// TestUnmarshalBoundsNodeCount pins the size bound: a nodes line declaring
// more nodes than the text's length can connect is rejected before anything
// node-sized is allocated (the reference allocates ~1.6 GB for this text),
// with an error naming the count and the length.
func TestUnmarshalBoundsNodeCount(t *testing.T) {
	text := "name big\nnodes 50000000\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(text)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errTextTooShort) {
		t.Fatalf("Unmarshal(%q) = %v, want the size-bound error", text, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "nodes 50000000") || !strings.Contains(msg, fmt.Sprintf("%d-byte", len(text))) {
		t.Fatalf("size-bound error does not name the count and the length: %q", msg)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("rejecting the text allocated %d bytes", grew)
	}
	// Either side of the bound: 16 bytes can hold the 2 edge lines of 3
	// nodes (this text is only disconnected), not the 3 of 4 nodes.
	if _, err := Unmarshal("nodes 3\nedge 0 1"); err == nil || errors.Is(err, errTextTooShort) {
		t.Fatalf("3 nodes in 16 bytes: %v, want the connectivity error", err)
	}
	if _, err := Unmarshal("nodes 4\nedge 0 1"); !errors.Is(err, errTextTooShort) {
		t.Fatalf("4 nodes in 16 bytes: %v, want the size-bound error", err)
	}
}

// TestUnmarshalAllocsConstant is the parser's alloc pin: a configuration
// parses in a fixed number of allocations, whatever its size. (The
// scanner-based reference needs 10,190 for the 96-node clique.)
func TestUnmarshalAllocsConstant(t *testing.T) {
	const maxAllocs = 10
	var counts []float64
	for _, n := range []int{16, 96} {
		text := StaggeredClique(n).Marshal()
		counts = append(counts, testing.AllocsPerRun(20, func() {
			if _, err := Unmarshal(text); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[1] > maxAllocs {
		t.Fatalf("Unmarshal allocs: %v for 16 and 96 nodes, want equal and at most %d", counts, maxAllocs)
	}
	c := StaggeredClique(96)
	if allocs := testing.AllocsPerRun(20, func() { _ = c.Marshal() }); allocs > 2 {
		t.Fatalf("Marshal allocs = %v, want at most 2 (buffer and string)", allocs)
	}
}

// TestUnmarshalBytesWithinCSRBudget pins the bytes one parse of the
// 96-node staggered clique allocates, a TotalAlloc delta (allocation is
// deterministic here), under the budget of a compressed-sparse-row graph:
// the parser's int32 edge list and the graph's int32 neighbour array (8m
// bytes each; a large array rounds up to whole 8 KiB pages), the graph's
// n+1 int32 offsets, one int tag per node, and 4 KiB for the connectivity
// check's scratch and the small structs. A graph of one slice header per
// node and int neighbour entries needs over 128 KB.
func TestUnmarshalBytesWithinCSRBudget(t *testing.T) {
	c := StaggeredClique(96)
	n, m := c.N(), c.Graph().M()
	text := c.Marshal()
	budget := uint64(2*(8*m+8<<10) + 4*(n+1) + 8*n + 4<<10)
	if _, err := Unmarshal(text); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(text)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("Unmarshal of the %d-node clique allocated %d bytes, budget %d", n, got, budget)
	}
}

// codecBenchConfigs are the two ends of the served configurations' sizes: a
// 96-node staggered clique and a 16-node sparse random graph.
func codecBenchConfigs() []struct {
	name string
	c    *Config
} {
	rng := rand.New(rand.NewSource(5))
	return []struct {
		name string
		c    *Config
	}{
		{"clique96", StaggeredClique(96)},
		{"sparse16", Random(16, 0.15, UniformRandomTags{Span: 4}, rng)},
	}
}

func BenchmarkConfigUnmarshal(b *testing.B) {
	for _, bc := range codecBenchConfigs() {
		text := bc.c.Marshal()
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for b.Loop() {
				if _, err := Unmarshal(text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConfigMarshal(b *testing.B) {
	for _, bc := range codecBenchConfigs() {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bc.c.Marshal()
			}
		})
	}
}
