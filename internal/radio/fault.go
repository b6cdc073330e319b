package radio

import (
	"fmt"
	"math"
)

// This file is the fault-injection seam of the simulation core: a seeded,
// deterministic model of a lossy radio medium layered onto the Simulator's
// medium-resolution step (and replicated in the test-only GoroutinePerNode
// oracle). The paper's model assumes a clean medium — every transmitted
// message reaches every neighbour, collisions happen exactly when two or
// more neighbours transmit — and all prior experiments inherit that
// assumption. A FaultPlan perturbs it in three ways:
//
//   - message drops: each delivery (one transmitter, one neighbour, one
//     round) is independently lost with probability Drop;
//   - spurious collisions: each (node, round) pair independently hears
//     noise with probability Noise, regardless of what the medium carried —
//     the node records a collision entry, and a sleeping node is not woken
//     (a collision never wakes, per the model's corner-case rules);
//   - outages: a node inside one of its outage windows has its radio off —
//     its transmissions reach nobody and it hears silence; tag-based
//     (spontaneous) wake-ups still occur, because the wake-up tag is a
//     clock, not a radio event.
//
// Every fault decision is a pure function of (Seed, round, node[, node]) —
// a counter-based PRNG, not a stateful stream — so the injected faults are
// independent of the execution schedule: repeated runs and runs after
// Simulator.Reset produce byte-identical faulted histories, and the
// Simulator agrees bit-for-bit with a goroutine-per-node coordinator, whose
// schedule differs in every round. The clean path pays one nil check:
// a nil or empty plan leaves the round loop untouched and allocation-free.
type FaultPlan struct {
	// Seed keys every fault decision. Two runs with the same plan (seed,
	// rates, outages) inject identical faults; changing the seed redraws
	// every drop and noise decision.
	Seed uint64
	// Drop is the per-delivery message-drop probability in [0, 1]: each
	// (transmitter, neighbour, round) delivery is lost independently.
	Drop float64
	// Noise is the per-(node, round) spurious-collision probability in
	// [0, 1]: the node hears noise no matter what the medium carried.
	Noise float64
	// Outages are per-node radio-off windows in global rounds; windows of
	// one node may overlap (the node is down while any window covers the
	// round).
	Outages []Outage
}

// Outage is one node's radio-off window: the node neither delivers nor
// receives during global rounds [From, To).
type Outage struct {
	// Node is the affected node.
	Node int
	// From is the first global round of the outage.
	From int
	// To is the first global round after the outage; To <= From is an empty
	// window.
	To int
}

// Empty reports whether the plan injects no faults at all (the seed alone
// does not make a plan non-empty). The engines treat an empty plan exactly
// like a nil one: the clean round loop runs unchanged.
func (p *FaultPlan) Empty() bool {
	return p == nil || (p.Drop == 0 && p.Noise == 0 && len(p.Outages) == 0)
}

// Validate checks the plan against a configuration of n nodes: rates must
// be proper probabilities and outage windows must name existing nodes.
func (p *FaultPlan) Validate(n int) error {
	if p == nil {
		return nil
	}
	if math.IsNaN(p.Drop) || p.Drop < 0 || p.Drop > 1 {
		return fmt.Errorf("radio: fault drop rate %v outside [0, 1]", p.Drop)
	}
	if math.IsNaN(p.Noise) || p.Noise < 0 || p.Noise > 1 {
		return fmt.Errorf("radio: fault noise rate %v outside [0, 1]", p.Noise)
	}
	for i, o := range p.Outages {
		if o.Node < 0 || o.Node >= n {
			return fmt.Errorf("radio: outage %d names node %d of a %d-node configuration", i, o.Node, n)
		}
		if o.From < 0 {
			return fmt.Errorf("radio: outage %d starts at negative round %d", i, o.From)
		}
	}
	return nil
}

// Domain constants separate the drop and noise decision streams: the same
// (seed, round, node) must not force a drop and a noise injection to
// co-occur.
const (
	faultDomainDrop  uint64 = 0x6c6f737379 // "lossy"
	faultDomainNoise uint64 = 0x6e6f697365 // "noise"
)

// faultMix is the SplitMix64 finalizer: a cheap, stateless bijection with
// full avalanche, which is exactly what a counter-based fault PRNG needs —
// uniform decisions from structured (seed, round, node) counters without
// any per-run state to keep schedule-independent.
func faultMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// chance draws the decision keyed by (seed, domain, a, b, c): true with
// probability rate. The 53 high bits of the mixed word form a uniform value
// in [0, 1), so the comparison is exact for every representable rate and
// identical on every platform.
func (p *FaultPlan) chance(rate float64, domain, a, b, c uint64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := faultMix(p.Seed ^ faultMix(domain^faultMix(a^faultMix(b^faultMix(c)))))
	return float64(h>>11)*(1.0/(1<<53)) < rate
}

// dropsDelivery reports whether the delivery from transmitter `from` to
// neighbour `to` in the given global round is lost.
func (p *FaultPlan) dropsDelivery(round, from, to int) bool {
	return p.chance(p.Drop, faultDomainDrop, uint64(round), uint64(from), uint64(to))
}

// injectsNoise reports whether node v hears a spurious collision in the
// given global round.
func (p *FaultPlan) injectsNoise(round, v int) bool {
	return p.chance(p.Noise, faultDomainNoise, uint64(round), uint64(v), 0)
}

// applyOutages folds the round's window boundaries into the per-node outage
// depth: a window starting this round raises its node's depth, one ending
// this round lowers it. depth[v] > 0 means node v's radio is off. Depth
// counting (instead of a boolean) keeps overlapping windows of one node
// correct. The caller owns depth (all-zero before round 0) and the cost is
// O(len(Outages)) per round, independent of n. The returned delta is the
// change in the number of distinct nodes currently down, so the engines can
// keep a running down-count for FaultStats.OutageRounds without an O(n)
// sweep per round.
func (p *FaultPlan) applyOutages(round int, depth []int32) (delta int) {
	for _, o := range p.Outages {
		if o.From >= o.To {
			continue // empty window
		}
		if o.From == round {
			if depth[o.Node]++; depth[o.Node] == 1 {
				delta++
			}
		}
		if o.To == round {
			if depth[o.Node]--; depth[o.Node] == 0 {
				delta--
			}
		}
	}
	return delta
}

// down reports whether node v's radio is off this round, given the outage
// depth maintained by applyOutages; a nil depth means the plan has no
// outages.
func down(depth []int32, v int) bool {
	return depth != nil && depth[v] > 0
}

// perceive maps the medium's true (count, message) at node v onto what the
// node actually observes under the plan: silence during an outage, a
// collision when noise is injected (count forced to >= 2, so a forced
// wake-up — which requires exactly one audible transmitter — cannot
// happen), the truth otherwise. A perceived noise injection is tallied in
// fs; outage silence is not (FaultStats.OutageRounds counts node-rounds
// down, maintained from applyOutages deltas, not perceptions).
func (p *FaultPlan) perceive(count int, msg string, round, v int, depth []int32, fs *FaultStats) (int, string) {
	if down(depth, v) {
		return 0, ""
	}
	if p.injectsNoise(round, v) {
		fs.Noise++
		return count + 2, ""
	}
	return count, msg
}

// plan normalizes the Options' fault plan for an engine run on n nodes:
// nil for a clean medium (including an empty plan), the validated plan
// otherwise.
func (o Options) plan(n int) (*FaultPlan, error) {
	if o.Fault.Empty() {
		return nil, nil
	}
	if err := o.Fault.Validate(n); err != nil {
		return nil, err
	}
	return o.Fault, nil
}
