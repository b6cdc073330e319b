// Package radio implements the synchronous radio-network model of the paper
// (Section 1.1) and executes DRIPs on configurations.
//
// The model: nodes communicate in synchronous global rounds. In each round an
// awake node either transmits a message to all of its neighbours or listens.
// A listening node v hears a message from neighbour w iff w is the only
// neighbour of v transmitting in that round; if two or more neighbours
// transmit, v hears noise (collision detection); otherwise v hears silence.
// A transmitting node hears nothing (records silence). A node wakes up
// spontaneously in the global round given by its wake-up tag, or earlier if
// it receives a message while asleep (a forced wake-up); local round 0 is the
// wake-up round and the node starts executing its protocol in local round 1.
//
// Corner cases not fixed by the paper (they never occur for the patient
// protocols the paper analyses) are resolved as follows and covered by tests:
//
//   - a sleeping node at which a collision occurs does not wake up (waking
//     requires receiving a message);
//   - a node that wakes up spontaneously in a round where exactly one
//     neighbour transmits records that message as H[0] (the paper's
//     definition classifies this as a forced wake-up since r <= t_v);
//   - a node that wakes up spontaneously in a round where two or more
//     neighbours transmit records noise as H[0];
//   - the history entry of the termination round is silence.
//
// Execution has one core, the reusable zero-alloc, event-driven Simulator;
// the Sequential engine is a one-shot adapter over it. The simulator
// consults a node only when its protocol can act, hands a lone
// transmitter's message in a clean medium straight to its neighbours (a
// lone transmitter cannot collide), and counts transmitting neighbours only
// when two or more nodes transmit or a fault plan is active. The tests hold
// it to bit-identical histories against an independent goroutine-per-node
// coordinator that lives only in the test files as a differential oracle.
//
// In the repository's layering, radio is the execution substrate: package
// election runs canonical DRIPs (package canonical) on it to build and
// verify dedicated algorithms, and package service gives each shard worker
// one reusable Simulator, rebound to whichever registered configuration the
// worker elects, for zero-alloc steady-state serving.
package radio

import (
	"errors"
	"fmt"

	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/history"
)

// DefaultMaxRounds is the global-round safety limit used when Options.MaxRounds
// is zero. It is far above anything the canonical DRIP needs on the workloads
// in this repository.
const DefaultMaxRounds = 1_000_000

// ErrRoundLimit is returned (wrapped) when the protocol fails to terminate on
// every node within the configured round limit.
var ErrRoundLimit = errors.New("radio: round limit exceeded")

// Options control a simulation run.
type Options struct {
	// MaxRounds is the maximum number of global rounds to simulate before
	// giving up. Zero means DefaultMaxRounds.
	MaxRounds int
	// RecordTrace enables collection of a per-round Trace in the Result.
	RecordTrace bool
	// Fault injects seeded, deterministic medium faults — message drops,
	// spurious collisions, per-node outage windows — into the run; nil (or
	// an empty plan) is the paper's clean medium and leaves the round loop
	// untouched. Fault decisions are pure functions of (seed, round, node),
	// so every run of the same plan produces byte-identical faulted
	// histories. See FaultPlan.
	Fault *FaultPlan
}

func (o Options) maxRounds() int {
	if o.MaxRounds <= 0 {
		return DefaultMaxRounds
	}
	return o.MaxRounds
}

// FaultStats counts the faults a run actually injected (not the plan's
// rates): deliveries lost to the drop rate, spurious collisions perceived,
// and node-rounds spent inside an outage window. All zero on a clean medium.
// The counts are pure functions of the plan, like the fault decisions
// themselves: every run of the same plan reports identical stats.
type FaultStats struct {
	// Drops counts deliveries (one transmitter, one neighbour, one round)
	// lost to the drop rate. Deliveries silenced by an outage are not drops.
	Drops int64
	// Noise counts spurious collisions actually perceived by a node (at a
	// wake-up check or a Listen); an injection at a node that was
	// transmitting that round is never perceived and never counted.
	Noise int64
	// OutageRounds counts node-rounds with the radio off (a node down for
	// five rounds contributes five).
	OutageRounds int64
}

// Result is the outcome of executing a protocol on a configuration.
type Result struct {
	// Histories[v] is the complete history vector of node v, indexed by
	// local round, including the entry of the termination round. It is
	// empty in a result of Simulator.RunCodes.
	Histories []history.Vector
	// Codes[v] is the same history in one byte per entry (see
	// CodedProtocol), for runs of a coded protocol; empty otherwise.
	Codes [][]byte
	// WakeRound[v] is the global round in which node v woke up.
	WakeRound []int
	// Forced[v] reports whether node v was woken up by a message.
	Forced []bool
	// DoneLocal[v] is the local round in which node v terminated.
	DoneLocal []int
	// GlobalRounds is the number of global rounds simulated, i.e. one more
	// than the last global round in which any node was still executing.
	GlobalRounds int
	// Trace is the per-round transcript; nil unless Options.RecordTrace.
	Trace *Trace
	// Faults counts the faults the run injected; all zero on a clean medium
	// (no fault plan, or an empty one).
	Faults FaultStats
}

// Engine executes a protocol on a configuration.
type Engine interface {
	// Run simulates the protocol on the configuration until every node has
	// terminated or the round limit is reached. All nodes execute the same
	// protocol (the network is anonymous).
	Run(cfg *config.Config, proto drip.Protocol, opts Options) (*Result, error)
	// Name identifies the engine in reports.
	Name() string
}

// ElectionOutcome describes the result of running a complete dedicated
// leader election algorithm.
type ElectionOutcome struct {
	// Result is the underlying simulation result.
	Result *Result
	// Leaders is the sorted list of nodes whose decision function output 1.
	Leaders []int
	// Rounds is the number of global rounds until the last node terminated.
	Rounds int
}

// Elected reports whether exactly one leader was elected.
func (o *ElectionOutcome) Elected() bool { return len(o.Leaders) == 1 }

// Leader returns the elected leader, or -1 if the election failed.
func (o *ElectionOutcome) Leader() int {
	if len(o.Leaders) == 1 {
		return o.Leaders[0]
	}
	return -1
}

// RunElection executes the algorithm's protocol on cfg with the given engine
// and applies its decision function to every node's final history.
func RunElection(e Engine, cfg *config.Config, alg drip.Algorithm, opts Options) (*ElectionOutcome, error) {
	if alg.Protocol == nil || alg.Decision == nil {
		return nil, fmt.Errorf("radio: incomplete algorithm %q", alg.Name)
	}
	res, err := e.Run(cfg, alg.Protocol, opts)
	if err != nil {
		return nil, err
	}
	outcome := &ElectionOutcome{Result: res, Rounds: res.GlobalRounds}
	for v := 0; v < cfg.N(); v++ {
		if alg.Decision.Decide(res.Histories[v]) == 1 {
			outcome.Leaders = append(outcome.Leaders, v)
		}
	}
	return outcome, nil
}

// wakeEntry returns the history entry recorded by a node in its wake-up
// round, given the number of neighbours transmitting in that round and the
// message carried when exactly one transmits.
func wakeEntry(transmitting int, msg string) history.Entry {
	switch {
	case transmitting == 1:
		return history.Received(msg)
	case transmitting >= 2:
		return history.Collision()
	default:
		return history.Silent()
	}
}

// listenEntry returns the history entry recorded by a listening node, given
// the number of transmitting neighbours and the message when exactly one
// transmits.
func listenEntry(transmitting int, msg string) history.Entry {
	return wakeEntry(transmitting, msg)
}
