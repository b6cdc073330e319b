// Package config defines configurations: the central objects of the paper.
//
// A configuration is a simple undirected connected graph in which every node
// v carries a non-negative integer wake-up tag t_v (Section 2.1). A node
// wakes up spontaneously in global round t_v unless it is woken up earlier by
// receiving a message from an already-awake neighbour. The span σ of a
// configuration is the difference between the largest and the smallest tag;
// since nodes have no access to the global clock the smallest tag can be
// normalized to 0 without loss of generality.
//
// The package also provides the configuration families used by the paper's
// negative results (G_m of Proposition 4.1, H_m of Lemma 4.2 and S_m of
// Proposition 4.5), tag-assignment strategies for random workloads, and a
// textual codec.
package config

import (
	"fmt"
	"strings"

	"anonradio/internal/graph"
)

// Config is a configuration: a graph plus one wake-up tag per node.
// Config values should be treated as immutable once constructed; use Clone
// before mutating.
type Config struct {
	// Name is an optional human-readable identifier used in reports.
	Name string

	g    *graph.Graph
	tags []int
}

// New builds a configuration from a graph and a tag vector. The tag slice is
// copied. It returns an error if the sizes do not match, any tag is
// negative, or the graph is not connected (the paper's model requires
// connected graphs). Use NewUnchecked for intentionally malformed inputs in
// tests.
func New(g *graph.Graph, tags []int) (*Config, error) {
	if err := check(g, tags); err != nil {
		return nil, err
	}
	return &Config{g: g.Clone(), tags: append([]int(nil), tags...)}, nil
}

// check is New's validation, shared with Unmarshal, which adopts the graph
// and tags it built instead of copying them.
func check(g *graph.Graph, tags []int) error {
	if g == nil {
		return fmt.Errorf("config: nil graph")
	}
	if len(tags) != g.N() {
		return fmt.Errorf("config: %d tags for %d nodes", len(tags), g.N())
	}
	for v, t := range tags {
		if t < 0 {
			return fmt.Errorf("config: node %d has negative tag %d", v, t)
		}
	}
	if g.N() == 0 {
		return fmt.Errorf("config: configuration must have at least one node")
	}
	if !g.Connected() {
		return fmt.Errorf("config: graph is not connected")
	}
	return nil
}

// MustNew is like New but panics on error. It is convenient for constructing
// the fixed families and for tests.
func MustNew(g *graph.Graph, tags []int) *Config {
	c, err := New(g, tags)
	if err != nil {
		panic(err)
	}
	return c
}

// NewUnchecked builds a configuration without validating connectivity or tag
// signs. It still requires matching sizes. It is intended for tests of error
// paths in higher layers.
func NewUnchecked(g *graph.Graph, tags []int) *Config {
	if g == nil || len(tags) != g.N() {
		panic("config: NewUnchecked size mismatch")
	}
	return &Config{g: g.Clone(), tags: append([]int(nil), tags...)}
}

// Clone returns a deep copy of c.
func (c *Config) Clone() *Config {
	return &Config{Name: c.Name, g: c.g.Clone(), tags: append([]int(nil), c.tags...)}
}

// Graph returns the underlying graph. The caller must not modify it.
func (c *Config) Graph() *graph.Graph { return c.g }

// N returns the number of nodes (the size of the configuration).
func (c *Config) N() int { return c.g.N() }

// Tag returns the wake-up tag of node v.
func (c *Config) Tag(v int) int { return c.tags[v] }

// Tags returns a copy of the tag vector.
func (c *Config) Tags() []int { return append([]int(nil), c.tags...) }

// MinTag returns the smallest wake-up tag.
func (c *Config) MinTag() int {
	min := c.tags[0]
	for _, t := range c.tags[1:] {
		if t < min {
			min = t
		}
	}
	return min
}

// MaxTag returns the largest wake-up tag.
func (c *Config) MaxTag() int {
	max := c.tags[0]
	for _, t := range c.tags[1:] {
		if t > max {
			max = t
		}
	}
	return max
}

// Span returns σ, the difference between the largest and smallest tag.
func (c *Config) Span() int { return c.MaxTag() - c.MinTag() }

// MaxDegree returns Δ, the maximum degree of the underlying graph.
func (c *Config) MaxDegree() int { return c.g.MaxDegree() }

// Normalized returns an equivalent configuration whose smallest tag is 0
// (all tags shifted down by MinTag). Since nodes cannot observe the global
// clock, the normalized configuration is behaviourally identical
// (Section 2.1). If the configuration is already normalized the receiver is
// returned unchanged.
func (c *Config) Normalized() *Config {
	min := c.MinTag()
	if min == 0 {
		return c
	}
	shifted := make([]int, len(c.tags))
	for i, t := range c.tags {
		shifted[i] = t - min
	}
	out := &Config{Name: c.Name, g: c.g, tags: shifted}
	return out
}

// IsNormalized reports whether the smallest tag is 0.
func (c *Config) IsNormalized() bool { return c.MinTag() == 0 }

// Equal reports whether c and o have identical graphs (as labeled graphs) and
// identical tag vectors. Name is ignored.
func (c *Config) Equal(o *Config) bool {
	if c.N() != o.N() {
		return false
	}
	for i := range c.tags {
		if c.tags[i] != o.tags[i] {
			return false
		}
	}
	return c.g.Equal(o.g)
}

// Validate re-checks the structural invariants of the configuration: a
// connected non-empty graph and non-negative tags.
func (c *Config) Validate() error {
	if c.g == nil {
		return fmt.Errorf("config: nil graph")
	}
	if err := c.g.Validate(); err != nil {
		return err
	}
	if c.g.N() == 0 {
		return fmt.Errorf("config: empty configuration")
	}
	if len(c.tags) != c.g.N() {
		return fmt.Errorf("config: %d tags for %d nodes", len(c.tags), c.g.N())
	}
	for v, t := range c.tags {
		if t < 0 {
			return fmt.Errorf("config: node %d has negative tag %d", v, t)
		}
	}
	if !c.g.Connected() {
		return fmt.Errorf("config: graph is not connected")
	}
	return nil
}

// String returns a short description of the configuration.
func (c *Config) String() string {
	name := c.Name
	if name == "" {
		name = "config"
	}
	return fmt.Sprintf("%s{n=%d m=%d Δ=%d σ=%d}", name, c.N(), c.g.M(), c.MaxDegree(), c.Span())
}

// TagHistogram returns a map from tag value to the number of nodes carrying
// that tag.
func (c *Config) TagHistogram() map[int]int {
	h := make(map[int]int)
	for _, t := range c.tags {
		h[t]++
	}
	return h
}

// NodesWithTag returns the sorted list of nodes whose tag equals t.
func (c *Config) NodesWithTag(t int) []int {
	var nodes []int
	for v, tv := range c.tags {
		if tv == t {
			nodes = append(nodes, v)
		}
	}
	return nodes
}

// Describe returns a multi-line human-readable description including the tag
// of every node, used by the CLI tools.
func (c *Config) Describe() string {
	var sb strings.Builder
	sb.WriteString(c.String())
	sb.WriteByte('\n')
	for v := 0; v < c.N(); v++ {
		fmt.Fprintf(&sb, "  node %d: tag=%d neighbours=%v\n", v, c.tags[v], c.g.Neighbors(v))
	}
	return sb.String()
}
