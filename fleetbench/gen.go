package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"anonradio/internal/config"
	"anonradio/internal/graph"
	"anonradio/internal/wire"
)

// This file is the benchmark's own input generator. Everything a workload
// sends is derived from the seed here, with the benchmark's own graph and
// tag constructions (not internal/config's random or family helpers), so a
// change to the program can never silently change a workload. Request
// bodies are encoded once, before anything is timed.

// Workload names, as passed to --workload.
const (
	serveSmall = "serve-small"
	serveLarge = "serve-large"
	admitChurn = "admit-churn"
)

var workloadNames = []string{serveSmall, serveLarge, admitChurn}

// spec is one configuration in structured form: the generator emits its
// text, and the oracle builds the config.Config from the structure itself,
// so a parser defect shows as a disagreement instead of being shared.
type spec struct {
	n     int
	tags  []int
	edges [][2]int
}

// text renders the configuration in the text format POST /v1/register takes.
func (s *spec) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes %d\n", s.n)
	for v, t := range s.tags {
		fmt.Fprintf(&b, "tag %d %d\n", v, t)
	}
	for _, e := range s.edges {
		fmt.Fprintf(&b, "edge %d %d\n", e[0], e[1])
	}
	return b.String()
}

// config builds the configuration directly from the structure.
func (s *spec) config() (*config.Config, error) {
	g := graph.New(s.n)
	for _, e := range s.edges {
		g.AddEdge(e[0], e[1])
	}
	return config.New(g, s.tags)
}

// permuted relabels the nodes with a random permutation, so configurations
// of one shape still differ in their text and node numbering.
func permuted(rng *rand.Rand, n int, tags []int, edges [][2]int) *spec {
	p := rng.Perm(n)
	s := &spec{n: n, tags: make([]int, n), edges: make([][2]int, len(edges))}
	for v, t := range tags {
		s.tags[p[v]] = t
	}
	for i, e := range edges {
		u, v := p[e[0]], p[e[1]]
		if u > v {
			u, v = v, u
		}
		s.edges[i] = [2]int{u, v}
	}
	sort.Slice(s.edges, func(i, j int) bool {
		if s.edges[i][0] != s.edges[j][0] {
			return s.edges[i][0] < s.edges[j][0]
		}
		return s.edges[i][1] < s.edges[j][1]
	})
	return s
}

// shiftToZero makes the smallest tag 0 (configurations are normalized).
func shiftToZero(tags []int) {
	lo := math.MaxInt
	for _, t := range tags {
		lo = min(lo, t)
	}
	for i := range tags {
		tags[i] -= lo
	}
}

// sparseRandom is a connected graph on n nodes: a random spanning tree plus
// n/2 extra random edges, with tags drawn uniformly from [0, maxTag].
func sparseRandom(rng *rand.Rand, n, maxTag int) *spec {
	seen := make(map[[2]int]bool, n+n/2)
	var edges [][2]int
	add := func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if k := [2]int{u, v}; !seen[k] {
			seen[k] = true
			edges = append(edges, k)
		}
	}
	for v := 1; v < n; v++ {
		add(v, rng.IntN(v))
	}
	for i := 0; i < n/2; i++ {
		add(rng.IntN(n), rng.IntN(n))
	}
	tags := make([]int, n)
	for v := range tags {
		tags[v] = rng.IntN(maxTag + 1)
	}
	shiftToZero(tags)
	return permuted(rng, n, tags, edges)
}

// staggeredClique is the complete graph on n nodes with the distinct tags
// 0..n-1: feasible, span n-1, and the densest medium per node.
func staggeredClique(rng *rand.Rand, n int) *spec {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	tags := make([]int, n)
	for v := range tags {
		tags[v] = v
	}
	return permuted(rng, n, tags, edges)
}

// lineG is the paper's G_m (Proposition 4.1): a path of 4m+1 nodes whose m
// nodes at each end have tag 0 and whose middle 2m+1 nodes have tag 1. It
// needs Ω(n) rounds, which makes its phase table deep.
func lineG(rng *rand.Rand, m int) *spec {
	n := 4*m + 1
	edges := make([][2]int, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	tags := make([]int, n)
	for v := m; v < n-m; v++ {
		tags[v] = 1
	}
	return permuted(rng, n, tags, edges)
}

// mirrored is an even path or cycle whose tags are symmetric under the
// reflection that fixes no node: that reflection is a tag-preserving
// automorphism without a fixed point, so no node can be singled out and the
// configuration is infeasible.
func mirrored(rng *rand.Rand, n, maxTag int, cycle bool) *spec {
	edges := make([][2]int, 0, n)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	if cycle {
		edges = append(edges, [2]int{0, n - 1})
	}
	tags := make([]int, n)
	for v := 0; v < n/2; v++ {
		tags[v] = rng.IntN(maxTag + 1)
		tags[n-1-v] = tags[v]
	}
	shiftToZero(tags)
	return permuted(rng, n, tags, edges)
}

// evenIn draws an even number from [lo, hi].
func evenIn(rng *rand.Rand, lo, hi int) int {
	return lo + 2*rng.IntN((hi-lo)/2+1)
}

// intIn draws an integer from [lo, hi].
func intIn(rng *rand.Rand, lo, hi int) int { return lo + rng.IntN(hi-lo+1) }

// Random streams: each input family draws from its own PCG stream, so
// changing one family never shifts another's draws.
const (
	streamKeys = iota + 1
	streamLoad
	streamPool
	streamOps
	streamProbe
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// item is one registered key with its configuration.
type item struct {
	key  string
	spec *spec
	exp  expect
}

// op is one step of the admit-churn writer: a registration of pool
// configuration cfg under churn key key, or an eviction of key.
type op struct {
	evict bool
	key   int
	cfg   int
}

// batchSize is the number of keys in one serve-large batch request.
const batchSize = 16

// largeKeys is serve-large's key count: 54 staggered cliques, 12 G_m lines
// and 30 sparse random graphs. Set-up admits and the restart reloads every
// key, so fewer keys would leave those figures resting on a handful of
// operations.
const largeKeys = 96

// loadSeqLen is the length of each client's pre-drawn request sequence; a
// client cycles through it for as long as it runs.
const loadSeqLen = 1 << 14

// inputs is everything one run sends, with the oracle's expectations.
type inputs struct {
	// stable are the keys admitted at setup and elected under load (the
	// probe's keys on admit-churn).
	stable []item
	// churn are admit-churn's churn-pool keys with their initial
	// configurations, also admitted at setup.
	churn []item
	// pool holds the configurations the admit-churn writer registers, and
	// ops the writer's fixed sequence for each cycle of the run (every
	// cycle starts from a fresh set-up).
	pool []item
	ops  [][]op
	// final is, per cycle, each churn key's pool configuration after the
	// cycle's sequence, or -1 when it ends evicted; -2 means its initial
	// one.
	final [][]int
	// infeasible are mirror-symmetric configurations in the workload's
	// size range, for the classifier's infeasible rung on workloads that
	// register none.
	infeasible []*spec
	// seqs holds each client's request sequence: key indices into stable
	// (serve-small and the probe) or batch indices into batches.
	seqs    [2][]int
	batches [][]int
	// zipf is serve-large's key popularity (probability per stable key).
	zipf []float64
}

// opsPerSecond sizes admit-churn's fixed writer sequence: a run has
// opsPerSecond × --seconds operations, which takes about --seconds on a
// 2-vCPU host. The count depends only on --seconds, never on elapsed time,
// so both sides of a comparison journal exactly the same records.
const opsPerSecond = 700

// cyclesFor is how many set-up → load → restart cycles a run of the
// workload makes. admit-churn makes fewer, longer ones, so that every
// cycle's sequence is long enough for each node to checkpoint.
func cyclesFor(workload string) int {
	if workload == admitChurn {
		return 3
	}
	return 5
}

// generate derives a workload's inputs from the seed; the oracle fills in
// every expectation along the way.
func generate(workload string, seed uint64, seconds int, o *oracle) (*inputs, error) {
	in := &inputs{}
	keys := newRand(seed, streamKeys)
	draw := func(key string, mk func() *spec, wantFeasible bool) (item, error) {
		for {
			s := mk()
			e, err := o.expectations(s)
			if err != nil {
				return item{}, fmt.Errorf("oracle on %s: %w", key, err)
			}
			if e.feasible || !wantFeasible {
				return item{key: key, spec: s, exp: e}, nil
			}
		}
	}
	var err error
	switch workload {
	case serveSmall, admitChurn:
		in.stable = make([]item, 1024)
		for i := range in.stable {
			in.stable[i], err = draw(fmt.Sprintf("s%04d", i), func() *spec {
				return sparseRandom(keys, intIn(keys, 6, 16), 4)
			}, true)
			if err != nil {
				return nil, err
			}
		}
		for i := 0; i < 32; i++ {
			in.infeasible = append(in.infeasible, mirrored(keys, evenIn(keys, 6, 16), 4, i%2 == 1))
		}
	case serveLarge:
		// Key i is the i-th most popular. The sizes follow a fixed
		// schedule and the most popular keys are the ones whose cost no
		// seed can change (cliques and G_m are the same graphs under any
		// relabeling), so the seed varies the inputs without moving the
		// workload's total cost much.
		in.stable = make([]item, largeKeys)
		for i := range in.stable {
			var mk func() *spec
			switch {
			case i < 54:
				n := 48 + (37*i)%49
				mk = func() *spec { return staggeredClique(keys, n) }
			case i < 66:
				m := 5 + (i-54)%4
				mk = func() *spec { return lineG(keys, m) }
			default:
				n := 48 + (17*(i-66))%49
				mk = func() *spec { return sparseRandom(keys, n, 24) }
			}
			if in.stable[i], err = draw(fmt.Sprintf("l%02d", i), mk, true); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 32; i++ {
			in.infeasible = append(in.infeasible, mirrored(keys, evenIn(keys, 48, 96), 24, i%2 == 1))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}

	load := newRand(seed, streamLoad)
	switch workload {
	case serveSmall:
		for c := range in.seqs {
			in.seqs[c] = make([]int, loadSeqLen)
			for i := range in.seqs[c] {
				in.seqs[c][i] = load.IntN(len(in.stable))
			}
		}
	case serveLarge:
		in.zipf = zipfWeights(len(in.stable), 1.1)
		cdf := cumulative(in.zipf)
		in.batches = make([][]int, 2048)
		for b := range in.batches {
			in.batches[b] = make([]int, batchSize)
			for i := range in.batches[b] {
				in.batches[b][i] = sample(cdf, load.Float64())
			}
		}
		for c := range in.seqs {
			in.seqs[c] = make([]int, len(in.batches)/2)
			for i := range in.seqs[c] {
				in.seqs[c][i] = c*len(in.batches)/2 + i
			}
		}
	case admitChurn:
		probe := newRand(seed, streamProbe)
		in.seqs[0] = make([]int, loadSeqLen)
		for i := range in.seqs[0] {
			in.seqs[0][i] = probe.IntN(len(in.stable))
		}
		if err := in.churnInputs(seed, seconds, cyclesFor(workload), draw); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// churnInputs draws admit-churn's configuration pool, the churn keys'
// initial configurations and the writer's fixed sequence for each cycle.
// The pool mix is 25% mirror-symmetric even paths and cycles (infeasible),
// 25% staggered cliques and 50% sparse random graphs; the writer evicts
// about 10% of the time and otherwise re-registers a churn key with a pool
// configuration.
func (in *inputs) churnInputs(seed uint64, seconds, cycles int, draw func(string, func() *spec, bool) (item, error)) error {
	const poolSize, churnKeys = 512, 256
	rng := newRand(seed, streamPool)
	in.pool = make([]item, poolSize)
	var err error
	for i := range in.pool {
		var mk func() *spec
		switch {
		case i < poolSize/4:
			cycle := i%2 == 1
			mk = func() *spec { return mirrored(rng, evenIn(rng, 24, 64), 8, cycle) }
		case i < poolSize/2:
			mk = func() *spec { return staggeredClique(rng, intIn(rng, 24, 48)) }
		default:
			mk = func() *spec { return sparseRandom(rng, intIn(rng, 24, 64), 8) }
		}
		if in.pool[i], err = draw(fmt.Sprintf("pool%03d", i), mk, i >= poolSize/4); err != nil {
			return err
		}
	}
	in.churn = make([]item, churnKeys)
	for k := range in.churn {
		if in.churn[k], err = draw(fmt.Sprintf("c%03d", k), func() *spec {
			return sparseRandom(rng, intIn(rng, 24, 64), 8)
		}, true); err != nil {
			return err
		}
	}
	ops := newRand(seed, streamOps)
	for c := 0; c < cycles; c++ {
		seq, final := in.churnSequence(ops, opsPerSecond*seconds/cycles)
		in.ops, in.final = append(in.ops, seq), append(in.final, final)
	}
	return nil
}

// churnSequence draws n writer operations starting from the state right
// after set-up, and returns them with each churn key's state after them.
func (in *inputs) churnSequence(ops *rand.Rand, n int) ([]op, []int) {
	poolSize, churnKeys := len(in.pool), len(in.churn)
	state := make([]int, churnKeys) // pool index, -1 evicted, -2 initial
	registered := make([]int, churnKeys)
	for k := range state {
		state[k], registered[k] = -2, k
	}
	seq := make([]op, n)
	for i := range seq {
		if ops.IntN(10) == 0 && len(registered) > 0 {
			j := ops.IntN(len(registered))
			k := registered[j]
			registered[j] = registered[len(registered)-1]
			registered = registered[:len(registered)-1]
			state[k] = -1
			seq[i] = op{evict: true, key: k}
			continue
		}
		k := ops.IntN(churnKeys)
		var c int
		switch u := ops.IntN(4); {
		case u == 0:
			c = ops.IntN(poolSize / 4)
		case u == 1:
			c = poolSize/4 + ops.IntN(poolSize/4)
		default:
			c = poolSize/2 + ops.IntN(poolSize/2)
		}
		seq[i] = op{key: k, cfg: c}
		if in.pool[c].exp.feasible {
			if state[k] == -1 {
				registered = append(registered, k)
			}
			state[k] = c
		}
	}
	return seq, state
}

// expectFinal is what electing churn key k should answer after cycle c's
// sequence: ok is false when the key must be unknown (404).
func (in *inputs) expectFinal(c, k int) (e expect, ok bool) {
	switch c := in.final[c][k]; c {
	case -1:
		return expect{}, false
	case -2:
		return in.churn[k].exp, true
	default:
		return in.pool[c].exp, true
	}
}

// zipfWeights returns the probability of each of n keys under a Zipf law
// with exponent s; key k is the (k+1)-th most popular.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
		sum += w[k]
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

func cumulative(p []float64) []float64 {
	c := make([]float64, len(p))
	var acc float64
	for i, x := range p {
		acc += x
		c[i] = acc
	}
	return c
}

// sample maps u in [0,1) onto an index by the cumulative distribution cdf.
func sample(cdf []float64, u float64) int {
	i := sort.SearchFloat64s(cdf, u)
	return min(i, len(cdf)-1)
}

// bodies holds the pre-encoded request bodies of one run.
type bodies struct {
	electJSON, electBin [][]byte // per stable key
	batchJSON, batchBin [][]byte // per serve-large batch
	cfgJSON             [][]byte // JSON string literal of each pool config
}

// encodeBodies pre-encodes every election body the load sends.
func (in *inputs) encodeBodies() *bodies {
	b := &bodies{}
	for _, it := range in.stable {
		b.electJSON = append(b.electJSON, []byte(`{"key":`+jsonString(it.key)+`}`))
		b.electBin = append(b.electBin, wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: it.key}))
	}
	for _, batch := range in.batches {
		keys := make([]string, len(batch))
		for i, k := range batch {
			keys[i] = in.stable[k].key
		}
		js, _ := json.Marshal(map[string][]string{"keys": keys})
		b.batchJSON = append(b.batchJSON, js)
		b.batchBin = append(b.batchBin, wire.AppendBatchRequestFrame(nil, &wire.BatchRequest{Keys: keys}))
	}
	for _, it := range in.pool {
		b.cfgJSON = append(b.cfgJSON, []byte(jsonString(it.spec.text())))
	}
	return b
}

// registerBody assembles a JSON registration body from the key and the
// pre-encoded configuration literal.
func registerBody(dst []byte, key string, cfgJSON []byte) []byte {
	dst = append(dst[:0], `{"key":`...)
	dst = append(dst, jsonString(key)...)
	dst = append(dst, `,"config":`...)
	dst = append(dst, cfgJSON...)
	return append(dst, '}')
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
