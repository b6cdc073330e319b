package anonradio

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonradio/internal/baseline"
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/election"
	"anonradio/internal/fnv"
	"anonradio/internal/graph"
	"anonradio/internal/radio"
	"anonradio/internal/symmetry"
	"anonradio/internal/wire"
)

// The census enumerates every labelled connected configuration with at most
// censusNodes nodes, span at most censusSpan and minimum tag 0, and checks
// the paper's claims on each one exhaustively:
//
//   - the turbo classifier, the reference Classify and the naive oracle
//     agree on the verdict, and turbo and Classify on the designated leader;
//   - symmetry.CertifiesInfeasible, which proves infeasibility from the
//     automorphism group alone (no node fixed by every automorphism),
//     certifies no feasible configuration;
//   - every feasible configuration builds, elects exactly its designated
//     leader within the round bound (Verify), its histories correspond to
//     the classifier's partitions phase by phase (VerifyCorrespondence,
//     Lemma 3.9), and its binary artifact, decoded and loaded, elects the
//     same leader in the same number of global rounds.
//
// testdata/census.golden holds the feasible, infeasible and
// symmetry-certified counts per (n, σ) and a 64-bit digest over every
// configuration's (configuration, verdict, leader, global rounds), so a
// change to the classifier, the canonical DRIP or the simulator that moves
// one outcome changes the file.
const (
	censusNodes = 5
	censusSpan  = 2
)

// TestCensus runs the census and compares it with testdata/census.golden. On
// a mismatch it prints the census it computed, which is the file's new
// content if the change is meant to move outcomes.
func TestCensus(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# Every labelled connected configuration with n <= 5 nodes, span <= 2 and\n")
	sb.WriteString("# minimum tag 0 (TestCensus, census_test.go).\n")
	sb.WriteString("# certified: infeasible configurations symmetry.CertifiesInfeasible proves\n")
	sb.WriteString("# infeasible from the automorphism group alone.\n")
	sb.WriteString("# n sigma configurations feasible infeasible certified\n")
	c := newCensus()
	for n := 1; n <= censusNodes; n++ {
		graphs := connectedGraphs(n)
		for sigma := 0; sigma <= censusSpan; sigma++ {
			total, infeasible, certified := 0, 0, 0
			for _, g := range graphs {
				forEachTagVector(n, sigma, func(tags []int) {
					total++
					feasible, cert := c.check(t, config.MustNew(g, tags))
					if !feasible {
						infeasible++
					}
					if cert {
						certified++
					}
				})
			}
			if total > 0 {
				fmt.Fprintf(&sb, "%d %d %d %d %d %d\n", n, sigma, total, total-infeasible, infeasible, certified)
			}
		}
	}
	fmt.Fprintf(&sb, "digest %016x\n", c.digest)
	got := sb.String()

	want, err := os.ReadFile(filepath.Join("testdata", "census.golden"))
	if err != nil {
		t.Fatalf("%v; the census computed:\n%s", err, got)
	}
	if got != string(want) {
		t.Fatalf("the census differs from testdata/census.golden; it computed:\n%s", got)
	}
}

// census holds the scratch the per-configuration checks reuse and the
// running digest.
type census struct {
	turbo  *core.Turbo
	sim    *radio.Simulator
	out    radio.ElectionOutcome
	buf    []byte
	digest uint64
}

func newCensus() *census {
	return &census{turbo: core.NewTurbo(), digest: fnv.Offset64}
}

// check runs every census check on cfg, folds its outcome into the digest
// and reports whether cfg is feasible and whether symmetry certifies it
// infeasible.
func (c *census) check(t *testing.T, cfg *config.Config) (feasible, certified bool) {
	t.Helper()
	rep, err := c.turbo.Classify(cfg, core.ClassifyOptions{RecordSnapshots: true})
	if err != nil {
		t.Fatalf("%s: turbo: %v", cfg, err)
	}
	ref, err := core.Classify(cfg)
	if err != nil {
		t.Fatalf("%s: Classify: %v", cfg, err)
	}
	naive, err := baseline.NaiveClassify(cfg)
	if err != nil {
		t.Fatalf("%s: NaiveClassify: %v", cfg, err)
	}
	if rep.Feasible() != ref.Feasible() || rep.Feasible() != naive.Feasible {
		t.Fatalf("%s: verdicts disagree: turbo %s, Classify %s, naive feasible=%v", cfg, rep.Decision, ref.Decision, naive.Feasible)
	}
	if rep.Leader != ref.Leader {
		t.Fatalf("%s: turbo designates node %d, Classify node %d", cfg, rep.Leader, ref.Leader)
	}
	certified, err = symmetry.CertifiesInfeasible(cfg, 0)
	if err != nil {
		t.Fatalf("%s: CertifiesInfeasible: %v", cfg, err)
	}
	if certified && rep.Feasible() {
		t.Fatalf("%s: symmetry certifies a feasible configuration infeasible", cfg)
	}
	rounds := 0
	if rep.Feasible() {
		rounds = c.elect(t, cfg, rep)
	}

	h := fnv.Mix64(c.digest, uint64(cfg.N()))
	for _, e := range cfg.Graph().Edges() {
		h = fnv.Mix64(h, uint64(e[0]<<8|e[1]))
	}
	for v := 0; v < cfg.N(); v++ {
		h = fnv.Mix64(h, uint64(cfg.Tag(v)))
	}
	verdict := uint64(0)
	if rep.Feasible() {
		verdict = 1
	}
	h = fnv.Mix64(h, verdict)
	h = fnv.Mix64(h, uint64(int64(rep.Leader)))
	c.digest = fnv.Mix64(h, uint64(rounds))
	return rep.Feasible(), certified
}

// elect builds the feasible cfg's algorithm from the turbo report, elects,
// verifies, checks the artifact round trip, and returns the election's
// global rounds.
func (c *census) elect(t *testing.T, cfg *config.Config, rep *core.Report) int {
	t.Helper()
	d, err := election.BuildFromReport(rep)
	if err != nil {
		t.Fatalf("%s: build: %v", cfg, err)
	}
	out, err := d.Elect(radio.Options{})
	if err != nil {
		t.Fatalf("%s: elect: %v", cfg, err)
	}
	if err := d.Verify(out); err != nil {
		t.Fatalf("%s: %v", cfg, err)
	}
	if err := d.VerifyCorrespondence(out.Result); err != nil {
		t.Fatalf("%s: %v", cfg, err)
	}

	c.buf = wire.AppendArtifact(c.buf[:0], d.Compile())
	art, err := wire.DecodeArtifact(c.buf)
	if err != nil {
		t.Fatalf("%s: decode artifact: %v", cfg, err)
	}
	loaded, err := election.Load(art, cfg)
	if err != nil {
		t.Fatalf("%s: load artifact: %v", cfg, err)
	}
	if c.sim == nil {
		if c.sim, err = radio.NewSimulator(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := loaded.ElectOn(c.sim, &c.out, radio.Options{}); err != nil {
		t.Fatalf("%s: elect the loaded artifact: %v", cfg, err)
	}
	if c.out.Leader() != out.Leader() || c.out.Rounds != out.Rounds {
		t.Fatalf("%s: the loaded artifact elected %v in %d rounds, the build %v in %d", cfg, c.out.Leaders, c.out.Rounds, out.Leaders, out.Rounds)
	}
	return out.Rounds
}

// connectedGraphs returns every connected labelled graph on n nodes, in
// ascending order of its edge set read as a bit mask over the node pairs
// (0,1), (0,2), ..., (n-2,n-1).
func connectedGraphs(n int) []*graph.Graph {
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	var graphs []*graph.Graph
	for mask := 0; mask < 1<<len(pairs); mask++ {
		g := graph.New(n)
		for i, p := range pairs {
			if mask&(1<<i) != 0 {
				g.AddEdge(p[0], p[1])
			}
		}
		if g.Connected() {
			graphs = append(graphs, g)
		}
	}
	return graphs
}

// forEachTagVector calls f with every tag vector of n entries in 0..sigma
// whose minimum is 0 and maximum sigma, in lexicographic order. f must not
// retain the slice.
func forEachTagVector(n, sigma int, f func(tags []int)) {
	tags := make([]int, n)
	for {
		lo, hi := sigma, 0
		for _, x := range tags {
			lo, hi = min(lo, x), max(hi, x)
		}
		if lo == 0 && hi == sigma {
			f(tags)
		}
		i := n - 1
		for i >= 0 && tags[i] == sigma {
			tags[i] = 0
			i--
		}
		if i < 0 {
			return
		}
		tags[i]++
	}
}
