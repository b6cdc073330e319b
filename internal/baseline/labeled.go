package baseline

import (
	"fmt"
	"strconv"

	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/graph"
	"anonradio/internal/history"
	"anonradio/internal/radio"
)

// This file implements the labeled baselines. Both assume the classic
// non-anonymous radio model in which every node knows a unique identifier in
// 0..n-1 and the total number of nodes n, and all nodes start simultaneously
// (global round 0). That is a strictly stronger model than the paper's
// anonymous one; the baselines quantify how many rounds those extra
// assumptions save (experiment E9).

// FloodMaxOutcome describes one run of a labeled baseline election.
type FloodMaxOutcome struct {
	// Leader is the elected node.
	Leader int
	// Rounds is the number of global rounds until every node terminated.
	Rounds int
}

// floodMaxProtocol is the per-node protocol of the TDMA flood-max election:
// time is divided into frames of n slots; node v may transmit only in slot v
// of each frame, and it transmits the largest identifier it has heard so far
// (initially its own). After the configured number of frames every node
// terminates; the node whose own identifier equals the largest heard value
// is the leader. TDMA slotting means no two nodes ever transmit in the same
// round, so no collisions occur and every transmission is delivered to all
// neighbours of the transmitter.
type floodMaxProtocol struct {
	id     int
	n      int
	frames int
}

// maxHeard recomputes the largest identifier this node has heard up to the
// given history, including its own.
func (p floodMaxProtocol) maxHeard(h history.Vector) int {
	max := p.id
	for _, e := range h {
		if e.Kind != history.Message {
			continue
		}
		if v, err := strconv.Atoi(e.Msg); err == nil && v > max {
			max = v
		}
	}
	return max
}

// Act implements drip.Protocol.
func (p floodMaxProtocol) Act(h history.Vector) drip.Action {
	i := len(h) // local round, equal to the global round (all tags are 0)
	if i > p.frames*p.n {
		return drip.TerminateAction()
	}
	slot := (i - 1) % p.n
	if slot == p.id {
		return drip.TransmitAction(strconv.Itoa(p.maxHeard(h)))
	}
	return drip.ListenAction()
}

// FloodMaxTDMA elects a leader on the graph of cfg using the labeled TDMA
// flood-max baseline. The wake-up tags of cfg are ignored (the baseline
// model assumes a synchronized start); frames bounds the number of flooding
// frames and defaults to the graph diameter + 1 when zero or negative.
func FloodMaxTDMA(cfg *config.Config, frames int) (*FloodMaxOutcome, error) {
	if cfg == nil {
		return nil, fmt.Errorf("baseline: nil configuration")
	}
	g := cfg.Graph()
	n := g.N()
	if frames <= 0 {
		frames = g.Diameter() + 1
	}
	sync := config.MustNew(g, make([]int, n))
	protos := make([]drip.Protocol, n)
	for v := 0; v < n; v++ {
		protos[v] = floodMaxProtocol{id: v, n: n, frames: frames}
	}
	res, err := radio.RunAssigned(sync, protos, radio.Options{})
	if err != nil {
		return nil, err
	}
	// The leader is the node whose own identifier equals the network-wide
	// maximum it has heard; with enough frames that is exactly node n-1.
	leader := -1
	for v := 0; v < n; v++ {
		p := floodMaxProtocol{id: v, n: n, frames: frames}
		if p.maxHeard(res.Histories[v]) == v {
			if leader != -1 {
				return nil, fmt.Errorf("baseline: flood-max elected multiple leaders (%d and %d); not enough frames", leader, v)
			}
			leader = v
		}
	}
	if leader == -1 {
		return nil, fmt.Errorf("baseline: flood-max elected no leader")
	}
	return &FloodMaxOutcome{Leader: leader, Rounds: res.GlobalRounds}, nil
}

// binarySearchProtocol is the per-node protocol of the deterministic
// single-hop election with collision detection: identifiers are eliminated
// bit by bit, from the most significant bit down. In the round for bit b,
// every still-active node whose identifier has bit b set transmits; active
// nodes with bit b clear listen and withdraw if the channel was busy
// (message or noise). After all bits are processed the unique maximum
// identifier is the only active node. This is the classic O(log n) election
// with collision detection on a single-hop network.
type binarySearchProtocol struct {
	id   int
	bits int
}

// activeAfter recomputes whether the node is still active after the first
// `rounds` bit-rounds of its history.
func (p binarySearchProtocol) activeAfter(h history.Vector, rounds int) bool {
	active := true
	for r := 1; r <= rounds && active; r++ {
		bit := p.bits - r
		mine := (p.id >> uint(bit)) & 1
		if mine == 1 {
			continue // the node transmitted and stays active
		}
		// The node listened: withdraw if anyone with this bit set spoke up.
		if r < len(h) && h[r].Kind != history.Silence {
			active = false
		}
	}
	return active
}

// Act implements drip.Protocol.
func (p binarySearchProtocol) Act(h history.Vector) drip.Action {
	i := len(h)
	if i > p.bits {
		return drip.TerminateAction()
	}
	if !p.activeAfter(h, i-1) {
		return drip.ListenAction()
	}
	bit := p.bits - i
	if (p.id>>uint(bit))&1 == 1 {
		return drip.TransmitAction("b")
	}
	return drip.ListenAction()
}

// BinarySearchSingleHop elects a leader among n nodes on a single-hop
// (complete-graph) network with collision detection, using the labeled
// bitwise elimination baseline. It returns the elected leader (always the
// maximum identifier, n-1) and the number of rounds.
func BinarySearchSingleHop(n int) (*FloodMaxOutcome, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: need at least one node, got %d", n)
	}
	if n == 1 {
		return &FloodMaxOutcome{Leader: 0, Rounds: 1}, nil
	}
	bits := 0
	for 1<<uint(bits) < n {
		bits++
	}
	g := graph.Complete(n)
	sync := config.MustNew(g, make([]int, n))
	protos := make([]drip.Protocol, n)
	for v := 0; v < n; v++ {
		protos[v] = binarySearchProtocol{id: v, bits: bits}
	}
	res, err := radio.RunAssigned(sync, protos, radio.Options{})
	if err != nil {
		return nil, err
	}
	leader := -1
	for v := 0; v < n; v++ {
		p := binarySearchProtocol{id: v, bits: bits}
		if p.activeAfter(res.Histories[v], bits) {
			if leader != -1 {
				return nil, fmt.Errorf("baseline: binary search left multiple active nodes (%d and %d)", leader, v)
			}
			leader = v
		}
	}
	if leader == -1 {
		return nil, fmt.Errorf("baseline: binary search left no active node")
	}
	return &FloodMaxOutcome{Leader: leader, Rounds: res.GlobalRounds}, nil
}
