// Package history defines the history vectors that drive every distributed
// radio interaction protocol (DRIP) in the reproduction.
//
// Following Section 2.2 of the paper, the history of a node v in local round
// i is one of:
//
//   - silence (∅): v transmitted in round i, or listened and heard nothing;
//   - a message (M): v listened and received message M from its unique
//     transmitting neighbour, or i = 0 and v was woken up by message M;
//   - noise (∗): v listened and a collision occurred at v.
//
// History vectors are indexed by local round number starting at 0 (the
// wake-up round). Equality of history vectors is the notion of symmetry that
// the whole paper revolves around, so this package provides careful equality,
// comparison, hashing and formatting.
package history

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
)

// Kind discriminates the three possible contents of a history entry.
type Kind uint8

const (
	// Silence is the ∅ entry: the node transmitted, or listened and heard
	// nothing.
	Silence Kind = iota
	// Message is the (M) entry: the node heard exactly one neighbour.
	Message
	// Noise is the (∗) entry: the node listened and a collision occurred.
	Noise
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Silence:
		return "silence"
	case Message:
		return "message"
	case Noise:
		return "noise"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Entry is a single history entry H_v[i].
type Entry struct {
	Kind Kind
	// Msg is the received message; meaningful only when Kind == Message.
	Msg string
}

// Silent returns the ∅ entry.
func Silent() Entry { return Entry{Kind: Silence} }

// Received returns the (M) entry for message m.
func Received(m string) Entry { return Entry{Kind: Message, Msg: m} }

// Collision returns the (∗) entry.
func Collision() Entry { return Entry{Kind: Noise} }

// Equal reports whether two entries are identical. Messages are compared
// byte-for-byte; Msg is ignored for non-message entries.
func (e Entry) Equal(o Entry) bool {
	if e.Kind != o.Kind {
		return false
	}
	if e.Kind == Message {
		return e.Msg == o.Msg
	}
	return true
}

// String renders the entry in the paper's notation.
func (e Entry) String() string {
	switch e.Kind {
	case Silence:
		return "(∅)"
	case Message:
		return fmt.Sprintf("(%q)", e.Msg)
	case Noise:
		return "(*)"
	default:
		return fmt.Sprintf("(?%d)", uint8(e.Kind))
	}
}

// Entry codes record a history in one byte per entry, for a run whose
// protocol transmits a single message (the canonical DRIP's "1"). The codes
// are the Kind values, with CodeMessage standing for that one message.
const (
	CodeSilence = byte(Silence)
	CodeMessage = byte(Message)
	CodeNoise   = byte(Noise)
	// CodeOther encodes every other message and every entry of an unknown
	// kind. A coded run never records it, so it matches no recorded entry.
	CodeOther byte = 3
)

// Code returns the entry's code, msg being the message coded CodeMessage.
func (e Entry) Code(msg string) byte {
	switch {
	case e.Kind == Silence || e.Kind == Noise:
		return byte(e.Kind)
	case e.Kind == Message && e.Msg == msg:
		return CodeMessage
	}
	return CodeOther
}

// AppendCodes appends the codes of h to dst, msg being the message coded
// CodeMessage.
func (h Vector) AppendCodes(dst []byte, msg string) []byte {
	dst = slices.Grow(dst, len(h))
	for _, e := range h {
		dst = append(dst, e.Code(msg))
	}
	return dst
}

// AppendDecoded appends to dst the entries a coded run recorded as codes,
// msg being the message coded CodeMessage. Decoding the codes of a run
// gives exactly the entries a vector run records.
func AppendDecoded(dst Vector, codes []byte, msg string) Vector {
	dst = slices.Grow(dst, len(codes))
	for _, c := range codes {
		e := Entry{Kind: Kind(c)}
		if c == CodeMessage {
			e.Msg = msg
		}
		dst = append(dst, e)
	}
	return dst
}

// Vector is a history vector H_v[0..len-1], indexed by local round.
type Vector []Entry

// Equal reports whether h and o are identical entry-by-entry.
func (h Vector) Equal(o Vector) bool {
	if len(h) != len(o) {
		return false
	}
	for i := range h {
		if !h[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// EqualPrefix reports whether the first upTo+1 entries (local rounds
// 0..upTo) of h and o are identical. It returns false if either vector is
// shorter than upTo+1.
func (h Vector) EqualPrefix(o Vector, upTo int) bool {
	if upTo < 0 {
		return true
	}
	if len(h) <= upTo || len(o) <= upTo {
		return false
	}
	return h[:upTo+1].Equal(o[:upTo+1])
}

// FirstDifference returns the first local round at which h and o differ, or
// -1 if one is a prefix of the other (including full equality).
func (h Vector) FirstDifference(o Vector) int {
	n := len(h)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if !h[i].Equal(o[i]) {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of h.
func (h Vector) Clone() Vector {
	if h == nil {
		return nil
	}
	c := make(Vector, len(h))
	copy(c, h)
	return c
}

// Slice returns the sub-vector H[from..to] inclusive. It panics on
// out-of-range indices.
func (h Vector) Slice(from, to int) Vector {
	if from < 0 || to >= len(h) || from > to+1 {
		panic(fmt.Sprintf("history: slice [%d..%d] out of range for length %d", from, to, len(h)))
	}
	return h[from : to+1]
}

// Hash returns a 64-bit FNV-1a hash of the vector, suitable for grouping
// nodes with equal histories. Equal vectors always hash equally.
func (h Vector) Hash() uint64 {
	f := fnv.New64a()
	var buf [1]byte
	for _, e := range h {
		buf[0] = byte(e.Kind)
		f.Write(buf[:])
		if e.Kind == Message {
			f.Write([]byte(e.Msg))
			buf[0] = 0xff // separator so ("a","b") != ("ab","")
			f.Write(buf[:])
		}
	}
	return f.Sum64()
}

// Key returns a canonical string encoding of the vector usable as a map key.
// Two vectors have the same key iff they are Equal.
func (h Vector) Key() string {
	var sb strings.Builder
	for _, e := range h {
		switch e.Kind {
		case Silence:
			sb.WriteByte('.')
		case Noise:
			sb.WriteByte('*')
		case Message:
			sb.WriteByte('<')
			sb.WriteString(fmt.Sprintf("%d:", len(e.Msg)))
			sb.WriteString(e.Msg)
			sb.WriteByte('>')
		}
	}
	return sb.String()
}

// String renders the vector in the paper's notation, e.g. "(∅)(∅)("1")(*)".
func (h Vector) String() string {
	var sb strings.Builder
	for _, e := range h {
		sb.WriteString(e.String())
	}
	return sb.String()
}

// CountKind returns the number of entries of the given kind.
func (h Vector) CountKind(k Kind) int {
	c := 0
	for _, e := range h {
		if e.Kind == k {
			c++
		}
	}
	return c
}

// Group partitions the given history vectors into classes of pairwise-equal
// vectors and returns, for each index, the class number (0-based, numbered in
// order of first appearance).
func Group(vectors []Vector) []int {
	classes := make([]int, len(vectors))
	index := make(map[string]int)
	for i, v := range vectors {
		k := v.Key()
		c, ok := index[k]
		if !ok {
			c = len(index)
			index[k] = c
		}
		classes[i] = c
	}
	return classes
}

// UniqueIndices returns the indices of vectors whose history is not shared by
// any other vector in the list.
func UniqueIndices(vectors []Vector) []int {
	counts := make(map[string]int)
	for _, v := range vectors {
		counts[v.Key()]++
	}
	var unique []int
	for i, v := range vectors {
		if counts[v.Key()] == 1 {
			unique = append(unique, i)
		}
	}
	return unique
}
