package config

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"anonradio/internal/graph"
)

// This file contains the textual codec for configurations. The format
// extends the graph edge-list format with one "tag" directive per node:
//
//	# comment
//	name <identifier>      (optional)
//	nodes <n>
//	tag <v> <t>
//	edge <u> <v>
//
// Nodes without an explicit tag directive default to tag 0. Lines end at
// "\n" (a "\r" before it is dropped), surrounding white space is ignored,
// and fields are separated by runs of Unicode white space.

// minEdgeLine is the length of the shortest possible edge line, "edge 0 1".
const minEdgeLine = len("edge 0 1")

// errTextTooShort marks a nodes declaration that no text of the given
// length can connect: a connected configuration on n ≥ 2 nodes needs n-1
// distinct edge lines of at least minEdgeLine bytes each.
var errTextTooShort = errors.New("text too short for its node count")

// Encode writes c in the configuration text format to w.
func (c *Config) Encode(w io.Writer) error {
	_, err := w.Write(c.appendText(make([]byte, 0, c.textSizeHint())))
	return err
}

// Marshal returns the text encoding of c.
func (c *Config) Marshal() string {
	return string(c.appendText(make([]byte, 0, c.textSizeHint())))
}

// appendText appends the text encoding of c to b: the name line, then the
// nodes line, one tag line per node and one edge line per edge {u,v}, u < v,
// in lexicographic order. Every white-space rune of Name is written as '_',
// so the name reads back as the single field its directive takes.
func (c *Config) appendText(b []byte) []byte {
	if c.Name != "" {
		b = append(b, "name "...)
		for i := 0; i < len(c.Name); {
			r, size := utf8.DecodeRuneInString(c.Name[i:])
			if unicode.IsSpace(r) {
				b = append(b, '_')
			} else {
				b = append(b, c.Name[i:i+size]...)
			}
			i += size
		}
		b = append(b, '\n')
	}
	b = append(b, "nodes "...)
	b = strconv.AppendInt(b, int64(c.N()), 10)
	b = append(b, '\n')
	for v, t := range c.tags {
		b = append(b, "tag "...)
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, '\n')
	}
	for u := range c.N() {
		for _, v := range c.g.Neighbors(u) {
			if v > u {
				b = append(b, "edge "...)
				b = strconv.AppendInt(b, int64(u), 10)
				b = append(b, ' ')
				b = strconv.AppendInt(b, int64(v), 10)
				b = append(b, '\n')
			}
		}
	}
	return b
}

// textSizeHint estimates the length of c's text encoding: 16 bytes per
// line fit node indices below 10^4 and tags below 10^5, and append grows the
// buffer for anything longer.
func (c *Config) textSizeHint() int {
	return len("name \nnodes \n") + len(c.Name) + 16*(1+c.N()+c.g.M())
}

// Read parses a configuration in the text format from r: it reads r to the
// end and parses the text with Unmarshal.
func Read(r io.Reader) (*Config, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, err
	}
	return Unmarshal(sb.String())
}

// Unmarshal parses a configuration from its text encoding. The parsed
// configuration is validated (connected graph, non-negative tags).
//
// It makes one pass over s without allocating per line: lines and fields
// are substrings of s, fields split at runs of Unicode white space, and
// numbers go through strconv.Atoi. The edges go into one flat list from
// which graph.FromEdges builds the graph in bulk. The result adopts that
// graph and copies its Name, so it does not keep s alive.
func Unmarshal(s string) (*Config, error) {
	p := parser{size: len(s), n: -1}
	rest := s
	for line := 1; rest != ""; line++ {
		text := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			text, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if err := p.parseLine(line, text); err != nil {
			return nil, err
		}
	}
	if p.n < 0 {
		return nil, fmt.Errorf("config: missing nodes declaration")
	}
	for v, t := range p.tags {
		if t < 0 {
			p.tags[v] = 0
		}
	}
	g := graph.FromEdges(p.n, p.edges)
	if err := check(g, p.tags); err != nil {
		return nil, err
	}
	return &Config{Name: strings.Clone(p.name), g: g, tags: p.tags}, nil
}

// parser is Unmarshal's state between lines.
type parser struct {
	size  int     // length of the whole text
	n     int     // declared node count, -1 before the nodes line
	tags  []int   // tag per node, -1 until the node's tag line
	edges []int32 // edge endpoints in line order, two per edge
	name  string  // the last name line's argument, a substring of the text
}

// parseLine parses line number line, text (without its "\n").
func (p *parser) parseLine(line int, text string) error {
	f, nf := fields(text)
	if nf == 0 || f[0][0] == '#' {
		return nil
	}
	switch f[0] {
	case "name":
		if nf != 2 {
			return fmt.Errorf("config: line %d: name takes exactly one argument", line)
		}
		p.name = f[1]
	case "nodes":
		if p.n >= 0 {
			return fmt.Errorf("config: line %d: duplicate nodes declaration", line)
		}
		if nf != 2 {
			return fmt.Errorf("config: line %d: nodes takes exactly one argument", line)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || n < 0 {
			return fmt.Errorf("config: line %d: invalid node count %q", line, f[1])
		}
		// Checked before anything n-sized is allocated; the int32 cap on node
		// indices binds only past 16 GiB of text.
		if n > 1 && (n-1 > p.size/minEdgeLine || n > math.MaxInt32) {
			return fmt.Errorf("config: line %d: %w: nodes %d need %d edge lines, a %d-byte text holds at most %d",
				line, errTextTooShort, n, n-1, p.size, p.size/minEdgeLine)
		}
		p.n = n
		p.tags = make([]int, n)
		for v := range p.tags {
			p.tags[v] = -1
		}
		// Each edge line takes minEdgeLine bytes and a line end, but the last.
		p.edges = make([]int32, 0, 2*((p.size+1)/(minEdgeLine+1)))
	case "tag":
		if p.n < 0 {
			return fmt.Errorf("config: line %d: tag before nodes declaration", line)
		}
		if nf != 3 {
			return fmt.Errorf("config: line %d: tag takes exactly two arguments", line)
		}
		v, err1 := strconv.Atoi(f[1])
		t, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("config: line %d: invalid tag directive %q", line, strings.TrimSpace(text))
		}
		if v < 0 || v >= p.n {
			return fmt.Errorf("config: line %d: tag for out-of-range node %d", line, v)
		}
		if t < 0 {
			return fmt.Errorf("config: line %d: negative tag %d", line, t)
		}
		if p.tags[v] >= 0 {
			return fmt.Errorf("config: line %d: duplicate tag for node %d", line, v)
		}
		p.tags[v] = t
	case "edge":
		if p.n < 0 {
			return fmt.Errorf("config: line %d: edge before nodes declaration", line)
		}
		if nf != 3 {
			return fmt.Errorf("config: line %d: edge takes exactly two arguments", line)
		}
		u, err1 := strconv.Atoi(f[1])
		v, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("config: line %d: invalid edge endpoints", line)
		}
		if u < 0 || u >= p.n || v < 0 || v >= p.n || u == v {
			return fmt.Errorf("config: line %d: edge %d-%d out of range or self-loop", line, u, v)
		}
		p.edges = append(p.edges, int32(u), int32(v))
	default:
		return fmt.Errorf("config: line %d: unknown directive %q", line, f[0])
	}
	return nil
}

// fields splits text at runs of unicode.IsSpace, as strings.Fields does,
// without allocating: it returns the first three fields and the number of
// fields, counted up to four.
func fields(text string) (f [3]string, n int) {
	start := -1 // where the current field starts, -1 between fields
	for i := 0; i < len(text); {
		c, size := text[i], 1
		space := c == ' ' || '\t' <= c && c <= '\r' // unicode.IsSpace's ASCII runes
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			if n == len(f) {
				return f, n + 1
			}
			f[n], n, start = text[start:i], n+1, -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		if n == len(f) {
			return f, n + 1
		}
		f[n], n = text[start:], n+1
	}
	return f, n
}

// DOT returns a Graphviz DOT representation of the configuration in which
// every node is labeled with its wake-up tag.
func (c *Config) DOT() string {
	var sb strings.Builder
	name := c.Name
	if name == "" {
		name = "config"
	}
	fmt.Fprintf(&sb, "graph %s {\n", sanitize(name))
	for v := 0; v < c.N(); v++ {
		fmt.Fprintf(&sb, "  n%d [label=\"%d (t=%d)\"];\n", v, v, c.tags[v])
	}
	for _, e := range c.g.Edges() {
		fmt.Fprintf(&sb, "  n%d -- n%d;\n", e[0], e[1])
	}
	sb.WriteString("}\n")
	return sb.String()
}

func sanitize(name string) string {
	var sb strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			sb.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "config"
	}
	return sb.String()
}
