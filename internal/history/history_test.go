package history

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Silence.String() != "silence" || Message.String() != "message" || Noise.String() != "noise" {
		t.Fatalf("kind names wrong: %v %v %v", Silence, Message, Noise)
	}
	if !strings.Contains(Kind(9).String(), "Kind(9)") {
		t.Fatalf("unknown kind string: %q", Kind(9).String())
	}
}

func TestEntryConstructorsAndEqual(t *testing.T) {
	if !Silent().Equal(Silent()) {
		t.Fatalf("silence should equal silence")
	}
	if !Collision().Equal(Collision()) {
		t.Fatalf("noise should equal noise")
	}
	if Silent().Equal(Collision()) {
		t.Fatalf("silence should not equal noise")
	}
	if !Received("1").Equal(Received("1")) {
		t.Fatalf("equal messages should be equal")
	}
	if Received("1").Equal(Received("2")) {
		t.Fatalf("different messages should differ")
	}
	if Received("1").Equal(Silent()) {
		t.Fatalf("message should not equal silence")
	}
	// Msg is irrelevant for silence entries.
	a := Entry{Kind: Silence, Msg: "x"}
	b := Entry{Kind: Silence, Msg: "y"}
	if !a.Equal(b) {
		t.Fatalf("silence entries should ignore Msg")
	}
}

func TestEntryString(t *testing.T) {
	if Silent().String() != "(∅)" {
		t.Fatalf("silent string: %q", Silent().String())
	}
	if Collision().String() != "(*)" {
		t.Fatalf("collision string: %q", Collision().String())
	}
	if !strings.Contains(Received("1").String(), `"1"`) {
		t.Fatalf("message string: %q", Received("1").String())
	}
	if !strings.Contains((Entry{Kind: Kind(7)}).String(), "?7") {
		t.Fatalf("unknown entry string: %q", Entry{Kind: Kind(7)}.String())
	}
}

func TestVectorEqual(t *testing.T) {
	a := Vector{Silent(), Received("1"), Collision()}
	b := Vector{Silent(), Received("1"), Collision()}
	c := Vector{Silent(), Received("2"), Collision()}
	if !a.Equal(b) {
		t.Fatalf("identical vectors should be equal")
	}
	if a.Equal(c) {
		t.Fatalf("vectors with different messages should differ")
	}
	if a.Equal(a[:2]) {
		t.Fatalf("different lengths should differ")
	}
	var empty Vector
	if !empty.Equal(Vector{}) {
		t.Fatalf("nil and empty vectors should be equal")
	}
}

func TestEqualPrefix(t *testing.T) {
	a := Vector{Silent(), Received("1"), Collision(), Silent()}
	b := Vector{Silent(), Received("1"), Silent(), Silent()}
	if !a.EqualPrefix(b, 1) {
		t.Fatalf("prefixes up to round 1 should match")
	}
	if a.EqualPrefix(b, 2) {
		t.Fatalf("prefixes up to round 2 should differ")
	}
	if !a.EqualPrefix(b, -1) {
		t.Fatalf("negative prefix is vacuously equal")
	}
	if a.EqualPrefix(b[:1], 3) {
		t.Fatalf("prefix longer than vector should be false")
	}
}

func TestFirstDifference(t *testing.T) {
	a := Vector{Silent(), Silent(), Received("1")}
	b := Vector{Silent(), Silent(), Collision()}
	if d := a.FirstDifference(b); d != 2 {
		t.Fatalf("first difference = %d, want 2", d)
	}
	if d := a.FirstDifference(a); d != -1 {
		t.Fatalf("identical vectors should have no difference, got %d", d)
	}
	if d := a.FirstDifference(a[:2]); d != -1 {
		t.Fatalf("prefix relation should report -1, got %d", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Vector{Silent(), Received("1")}
	c := a.Clone()
	c[1] = Collision()
	if a[1].Kind != Message {
		t.Fatalf("clone mutation leaked into original")
	}
	var nilVec Vector
	if nilVec.Clone() != nil {
		t.Fatalf("clone of nil should be nil")
	}
}

func TestSlice(t *testing.T) {
	a := Vector{Silent(), Received("1"), Collision(), Silent()}
	s := a.Slice(1, 2)
	if len(s) != 2 || s[0].Kind != Message || s[1].Kind != Noise {
		t.Fatalf("slice wrong: %v", s)
	}
	// from == to+1 yields an empty slice.
	if len(a.Slice(2, 1)) != 0 {
		t.Fatalf("empty slice expected")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-range slice should panic")
		}
	}()
	a.Slice(0, 10)
}

func TestHashAndKeyConsistency(t *testing.T) {
	a := Vector{Silent(), Received("1"), Collision()}
	b := Vector{Silent(), Received("1"), Collision()}
	if a.Hash() != b.Hash() {
		t.Fatalf("equal vectors must hash equally")
	}
	if a.Key() != b.Key() {
		t.Fatalf("equal vectors must have equal keys")
	}
	c := Vector{Silent(), Received("2"), Collision()}
	if a.Key() == c.Key() {
		t.Fatalf("different vectors should have different keys")
	}
}

func TestKeyMessageBoundaries(t *testing.T) {
	// ("ab") followed by ("") must differ from ("a") followed by ("b") and
	// from a single ("ab") entry list of other shapes.
	a := Vector{Received("ab"), Received("")}
	b := Vector{Received("a"), Received("b")}
	if a.Key() == b.Key() {
		t.Fatalf("message boundary ambiguity in Key: %q vs %q", a.Key(), b.Key())
	}
	if a.Hash() == b.Hash() {
		t.Fatalf("message boundary ambiguity in Hash")
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{Silent(), Received("1"), Collision()}
	s := v.String()
	if !strings.Contains(s, "(∅)") || !strings.Contains(s, "(*)") || !strings.Contains(s, `"1"`) {
		t.Fatalf("vector string missing parts: %q", s)
	}
}

func TestCountKind(t *testing.T) {
	v := Vector{Silent(), Received("1"), Collision(), Silent(), Collision()}
	if v.CountKind(Silence) != 2 || v.CountKind(Message) != 1 || v.CountKind(Noise) != 2 {
		t.Fatalf("CountKind wrong: %d %d %d", v.CountKind(Silence), v.CountKind(Message), v.CountKind(Noise))
	}
}

func TestGroup(t *testing.T) {
	vs := []Vector{
		{Silent(), Silent()},
		{Silent(), Received("1")},
		{Silent(), Silent()},
		{Collision()},
	}
	classes := Group(vs)
	if classes[0] != classes[2] {
		t.Fatalf("identical vectors must share a class: %v", classes)
	}
	if classes[0] == classes[1] || classes[1] == classes[3] || classes[0] == classes[3] {
		t.Fatalf("distinct vectors must not share a class: %v", classes)
	}
	if classes[0] != 0 || classes[1] != 1 || classes[3] != 2 {
		t.Fatalf("classes should be numbered by first appearance: %v", classes)
	}
}

func TestUniqueIndices(t *testing.T) {
	vs := []Vector{
		{Silent()},
		{Received("1")},
		{Silent()},
		{Collision()},
	}
	u := UniqueIndices(vs)
	if len(u) != 2 || u[0] != 1 || u[1] != 3 {
		t.Fatalf("unique indices wrong: %v", u)
	}
	if UniqueIndices(nil) != nil {
		t.Fatalf("unique of empty should be nil")
	}
}

func randomVector(rng *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		switch rng.Intn(3) {
		case 0:
			v[i] = Silent()
		case 1:
			v[i] = Received(string(rune('a' + rng.Intn(4))))
		default:
			v[i] = Collision()
		}
	}
	return v
}

func TestPropertyKeyEqualIffVectorEqual(t *testing.T) {
	f := func(seed int64, la, lb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomVector(rng, int(la%12))
		b := randomVector(rng, int(lb%12))
		// Sometimes force equality to exercise the equal branch.
		if seed%3 == 0 {
			b = a.Clone()
		}
		return a.Equal(b) == (a.Key() == b.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatalf("property failed: %v", err)
	}
}

func TestPropertyEqualImpliesEqualHash(t *testing.T) {
	f := func(seed int64, l uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomVector(rng, int(l%16))
		b := a.Clone()
		return a.Hash() == b.Hash() && a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatalf("property failed: %v", err)
	}
}

func TestPropertyGroupConsistentWithEqual(t *testing.T) {
	f := func(seed int64, count, l uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%8) + 2
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = randomVector(rng, int(l%5))
		}
		classes := Group(vs)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (classes[i] == classes[j]) != vs[i].Equal(vs[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("property failed: %v", err)
	}
}

// TestCodesRoundTrip pins the entry codes: the three kinds code as their
// Kind values with the coded message as CodeMessage, decoding restores the
// entries a run records, and every other message or kind codes as
// CodeOther, never as CodeMessage.
func TestCodesRoundTrip(t *testing.T) {
	h := Vector{Silent(), Received("1"), Collision(), Silent(), Received("1")}
	codes := h.AppendCodes(nil, "1")
	if string(codes) != string([]byte{CodeSilence, CodeMessage, CodeNoise, CodeSilence, CodeMessage}) {
		t.Fatalf("codes %v", codes)
	}
	if back := AppendDecoded(nil, codes, "1"); !back.Equal(h) || back[1].Msg != "1" || back[0].Msg != "" {
		t.Fatalf("decoded %s, want %s", back, h)
	}
	other := Vector{Received("2"), Received(""), Entry{Kind: Kind(7)}, Entry{Kind: Silence, Msg: "x"}}
	if got := other.AppendCodes(nil, "1"); string(got) != string([]byte{CodeOther, CodeOther, CodeOther, CodeSilence}) {
		t.Fatalf("foreign entries coded %v", got)
	}
}
