package election

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/radio"
)

// TestMaxRoundBoundIsDefaultLimit pins the round guard to the simulator's
// default round limit: canonical.MaxRoundBound, which rejects protocols
// before they are built, restates radio.DefaultMaxRounds, under which
// builds used to run, so the guard rejects exactly the configurations that
// could never build.
func TestMaxRoundBoundIsDefaultLimit(t *testing.T) {
	if canonical.MaxRoundBound != radio.DefaultMaxRounds {
		t.Fatalf("canonical.MaxRoundBound = %d, radio.DefaultMaxRounds = %d", canonical.MaxRoundBound, radio.DefaultMaxRounds)
	}
}

// codedOutcome is the observable part of a coded election: leaders, global
// rounds and every node's codes, copied out of the simulator's buffers.
type codedOutcome struct {
	leaders []int
	rounds  int
	codes   [][]byte
}

func copyOutcome(out *radio.ElectionOutcome) codedOutcome {
	c := codedOutcome{leaders: append([]int(nil), out.Leaders...), rounds: out.Rounds}
	for _, codes := range out.Result.Codes {
		c.codes = append(c.codes, bytes.Clone(codes))
	}
	return c
}

func (c codedOutcome) equal(o codedOutcome) error {
	if fmt.Sprint(c.leaders) != fmt.Sprint(o.leaders) || c.rounds != o.rounds || len(c.codes) != len(o.codes) {
		return fmt.Errorf("leaders %v in %d rounds over %d rows, want %v in %d over %d", c.leaders, c.rounds, len(c.codes), o.leaders, o.rounds, len(o.codes))
	}
	for v := range c.codes {
		if !bytes.Equal(c.codes[v], o.codes[v]) {
			return fmt.Errorf("node %d codes %v, want %v", v, c.codes[v], o.codes[v])
		}
	}
	return nil
}

// electOnFaults is the fault plan of the ElectOn tests: every fault kind
// at once, so a faulted election records drops, noise and outages.
var electOnFaults = &radio.FaultPlan{Seed: 7, Drop: 0.1, Noise: 0.02, Outages: []radio.Outage{{Node: 1, From: 3, To: 9}}}

// TestElectOnConcurrent elects one Dedicated from eight goroutines at once,
// each through ElectOn on its own simulator, clean and under a fault plan:
// every election must equal a sequential ElectInto in leaders, rounds and
// every node's codes. Run under -race, it pins that ElectOn only reads the
// algorithm.
func TestElectOnConcurrent(t *testing.T) {
	const goroutines, elections = 8, 5
	for _, cfg := range []*config.Config{config.StaggeredClique(32), config.LineFamilyG(2)} {
		d := buildDedicated(t, cfg)
		for _, plan := range []*radio.FaultPlan{nil, electOnFaults} {
			name := fmt.Sprintf("%s faulted=%v", cfg.Name, plan != nil)
			opts := radio.Options{Fault: plan}
			var ref radio.ElectionOutcome
			if err := d.ElectInto(&ref, opts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := copyOutcome(&ref)
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sim, err := radio.NewSimulator(d.Config)
					if err != nil {
						errs <- err
						return
					}
					var out radio.ElectionOutcome
					for i := 0; i < elections; i++ {
						if err := d.ElectOn(sim, &out, opts); err != nil {
							errs <- err
							return
						}
						if err := copyOutcome(&out).equal(want); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestElectOnSharedSimulator runs the elections of several algorithms on
// one simulator in turn, the way a shard worker serves its keys: each
// outcome must equal the algorithm's standalone Elect (leaders, rounds,
// histories) and ElectInto (codes), clean and faulted, and once the
// simulator has served the largest algorithm the rotation allocates
// nothing.
func TestElectOnSharedSimulator(t *testing.T) {
	var ds []*Dedicated
	for _, cfg := range []*config.Config{
		config.LineFamilyG(10), // the long-span row grower
		config.StaggeredClique(32),
		config.StaggeredPath(7, 2),
		config.LineFamilyG(2),
		config.EarlyCenterStar(6, 2),
	} {
		ds = append(ds, buildDedicated(t, cfg))
	}
	sim, err := radio.NewSimulator(ds[len(ds)-1].Config)
	if err != nil {
		t.Fatal(err)
	}
	var out radio.ElectionOutcome
	for _, plan := range []*radio.FaultPlan{nil, electOnFaults} {
		opts := radio.Options{Fault: plan}
		for round := 0; round < 2; round++ {
			for _, d := range ds {
				name := fmt.Sprintf("%s faulted=%v round %d", d.Config.Name, plan != nil, round)
				var ref radio.ElectionOutcome
				if err := d.ElectInto(&ref, opts); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := copyOutcome(&ref)
				standalone, err := d.Elect(opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := d.ElectOn(sim, &out, opts); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := copyOutcome(&out).equal(want); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if fmt.Sprint(out.Leaders) != fmt.Sprint(standalone.Leaders) || out.Rounds != standalone.Rounds {
					t.Fatalf("%s: ElectOn elected %v in %d rounds, Elect %v in %d", name, out.Leaders, out.Rounds, standalone.Leaders, standalone.Rounds)
				}
				for v, h := range standalone.Result.Histories {
					if !bytes.Equal(h.AppendCodes(nil, d.DRIP.CodedMessage()), out.Result.Codes[v]) {
						t.Fatalf("%s: node %d's Elect history differs from its ElectOn codes", name, v)
					}
				}
			}
		}
	}
	rotate := func() {
		for _, d := range ds {
			if err := d.ElectOn(sim, &out, radio.Options{}); err != nil {
				t.Fatal(err)
			}
			if len(out.Leaders) != 1 || out.Leaders[0] != d.ExpectedLeader {
				t.Fatalf("%s: elected %v", d.Config.Name, out.Leaders)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, rotate); allocs != 0 {
		t.Fatalf("a warm simulator rotating through %d algorithms allocates %.1f times, want 0", len(ds), allocs)
	}
	if err := ds[0].ElectOn(nil, &out, radio.Options{}); err == nil {
		t.Fatal("nil simulator should be rejected")
	}
	if err := ds[0].ElectOn(sim, nil, radio.Options{}); err == nil {
		t.Fatal("nil outcome should be rejected")
	}
}
