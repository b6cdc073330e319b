package config

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"anonradio/internal/graph"
)

// This file keeps the scanner-based text codec that Unmarshal and Marshal
// replaced, unchanged but for its names, as the differential reference of
// FuzzParseConfig: one bufio.Scanner line, one strings.Fields slice and one
// AddEdge per line, then New's defensive clone; one fmt.Fprintf per line to
// encode.

// referenceEncode writes c in the configuration text format to w.
func referenceEncode(c *Config, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if c.Name != "" {
		if _, err := fmt.Fprintf(bw, "name %s\n", strings.ReplaceAll(c.Name, " ", "_")); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "nodes %d\n", c.N()); err != nil {
		return err
	}
	for v := 0; v < c.N(); v++ {
		if _, err := fmt.Fprintf(bw, "tag %d %d\n", v, c.tags[v]); err != nil {
			return err
		}
	}
	for _, e := range c.g.Edges() {
		if _, err := fmt.Fprintf(bw, "edge %d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// referenceMarshal returns the text encoding of c.
func referenceMarshal(c *Config) string {
	var sb strings.Builder
	_ = referenceEncode(c, &sb)
	return sb.String()
}

// referenceRead parses a configuration in the text format from r. The parsed
// configuration is validated (connected graph, non-negative tags).
func referenceRead(r io.Reader) (*Config, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		g     *graph.Graph
		tags  []int
		name  string
		line  int
		setBy []bool
	)
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "name":
			if len(fields) != 2 {
				return nil, fmt.Errorf("config: line %d: name takes exactly one argument", line)
			}
			name = fields[1]
		case "nodes":
			if g != nil {
				return nil, fmt.Errorf("config: line %d: duplicate nodes declaration", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("config: line %d: nodes takes exactly one argument", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("config: line %d: invalid node count %q", line, fields[1])
			}
			g = graph.New(n)
			tags = make([]int, n)
			setBy = make([]bool, n)
		case "tag":
			if g == nil {
				return nil, fmt.Errorf("config: line %d: tag before nodes declaration", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("config: line %d: tag takes exactly two arguments", line)
			}
			v, err1 := strconv.Atoi(fields[1])
			t, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("config: line %d: invalid tag directive %q", line, text)
			}
			if v < 0 || v >= g.N() {
				return nil, fmt.Errorf("config: line %d: tag for out-of-range node %d", line, v)
			}
			if t < 0 {
				return nil, fmt.Errorf("config: line %d: negative tag %d", line, t)
			}
			if setBy[v] {
				return nil, fmt.Errorf("config: line %d: duplicate tag for node %d", line, v)
			}
			tags[v] = t
			setBy[v] = true
		case "edge":
			if g == nil {
				return nil, fmt.Errorf("config: line %d: edge before nodes declaration", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("config: line %d: edge takes exactly two arguments", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("config: line %d: invalid edge endpoints", line)
			}
			if u < 0 || u >= g.N() || v < 0 || v >= g.N() || u == v {
				return nil, fmt.Errorf("config: line %d: edge %d-%d out of range or self-loop", line, u, v)
			}
			g.AddEdge(u, v)
		default:
			return nil, fmt.Errorf("config: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("config: missing nodes declaration")
	}
	c, err := New(g, tags)
	if err != nil {
		return nil, err
	}
	c.Name = name
	return c, nil
}

// referenceUnmarshal parses a configuration from its text encoding.
func referenceUnmarshal(s string) (*Config, error) {
	return referenceRead(strings.NewReader(s))
}
