package election_test

import (
	"slices"
	"testing"

	"anonradio/internal/baseline"
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/drip"
	"anonradio/internal/election"
	"anonradio/internal/graph"
	"anonradio/internal/radio"
)

// fuzzConfig decodes a connected configuration of at most 12 nodes with
// tags in [0, 4]: byte 0 gives the node count, the next bytes the tags and a
// spanning tree (node v joins node b mod v), and every further byte an extra
// edge between the nodes its two halves name. Missing bytes read as zero.
func fuzzConfig(data []byte) *config.Config {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 1 + at(0)%12
	tags := make([]int, n)
	for v := range tags {
		tags[v] = at(1+v) % 5
	}
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, at(n+v)%v)
	}
	for i := 2 * n; i < len(data); i++ {
		if u, w := int(data[i]>>4)%n, int(data[i]&15)%n; u != w {
			g.AddEdge(u, w)
		}
	}
	return config.MustNew(g, tags)
}

// FuzzElectDifferential checks the classifiers and both history
// representations against each other on small configurations. Turbo and the
// reference Classify must agree on verdict and leader; the naive oracle,
// whose leader is the first singleton in its own class numbering, must
// agree on the verdict and on the final partition, so the designated leader
// is alone in its class there too. A feasible configuration's served
// election (ElectInto, deciding on codes) and a one-shot Parallel election
// of the same algorithm on a vector-recording protocol must agree on
// leaders and rounds, on a clean medium and under a fault plan drawn from
// the input.
func FuzzElectDifferential(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2}, uint64(1))
	f.Add([]byte{1, 0, 0}, uint64(2))
	f.Add([]byte{5, 0, 2, 2, 4, 1, 0, 1, 0, 2, 0x13, 0x24}, uint64(3))
	f.Add([]byte{7, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 2, 3, 4, 5}, uint64(4))
	f.Add([]byte{11, 4, 3, 2, 1, 0, 1, 2, 3, 4, 0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0x5a, 0x17, 0x8b}, uint64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		cfg := fuzzConfig(data)
		turbo, err := core.ClassifyTurbo(cfg, core.ClassifyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.Classify(cfg)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := baseline.NaiveClassify(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if turbo.Feasible() != ref.Feasible() || naive.Feasible != ref.Feasible() {
			t.Fatalf("%s: verdicts turbo %v, Classify %v, naive %v", cfg, turbo.Feasible(), ref.Feasible(), naive.Feasible)
		}
		if turbo.Leader != ref.Leader {
			t.Fatalf("%s: leaders turbo %d, Classify %d", cfg, turbo.Leader, ref.Leader)
		}
		final := naive.Iterations
		for v := 0; v < cfg.N(); v++ {
			for w := v + 1; w < cfg.N(); w++ {
				if naive.SameClass(final, v, w) != ref.SameClass(final, v, w) {
					t.Fatalf("%s: nodes %d, %d: naive same class %v", cfg, v, w, naive.SameClass(final, v, w))
				}
			}
		}
		if !ref.Feasible() {
			return
		}
		d, err := election.BuildFromReport(turbo)
		if err != nil {
			t.Fatal(err)
		}
		vectors := drip.Algorithm{Protocol: drip.Func(d.DRIP.Act), Decision: d.Algorithm.Decision}
		n := d.Config.N()
		plans := []*radio.FaultPlan{nil, {
			Seed:    seed,
			Drop:    float64(seed%5) / 10,
			Noise:   float64(seed>>3%4) / 20,
			Outages: []radio.Outage{{Node: int(seed>>5) % n, From: int(seed>>9) % 8, To: int(seed>>9)%8 + int(seed>>13)%6}},
		}}
		for _, plan := range plans {
			opts := radio.Options{Fault: plan, MaxRounds: d.RoundBound + 1}
			var served radio.ElectionOutcome
			if err := d.ElectInto(&served, opts); err != nil {
				t.Fatal(err)
			}
			one, err := radio.RunElection(radio.Parallel{Workers: 2}, d.Config, vectors, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(served.Leaders, one.Leaders) || served.Rounds != one.Rounds {
				t.Fatalf("%s fault %+v: served %v in %d rounds, vectors %v in %d", cfg, plan, served.Leaders, served.Rounds, one.Leaders, one.Rounds)
			}
			if plan == nil {
				if err := d.Verify(&served); err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
			}
		}
	})
}
