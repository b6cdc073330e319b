package radio

import (
	"strconv"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/graph"
	"anonradio/internal/history"
)

// Tests for RunAssigned, the heterogeneous (per-node protocol) execution mode
// used by the labeled baselines.

func TestRunAssignedValidation(t *testing.T) {
	cfg := config.SymmetricPair()
	protos := []drip.Protocol{drip.SilentTerminator{}, drip.SilentTerminator{}}
	if _, err := RunAssigned(nil, protos, Options{}); err == nil {
		t.Fatalf("nil configuration should error")
	}
	if _, err := RunAssigned(cfg, protos[:1], Options{}); err == nil {
		t.Fatalf("protocol count mismatch should error")
	}
	if _, err := RunAssigned(cfg, []drip.Protocol{nil, drip.SilentTerminator{}}, Options{}); err == nil {
		t.Fatalf("nil protocol entry should error")
	}
	if _, err := RunAssigned(cfg, protos, Options{}); err != nil {
		t.Fatalf("valid heterogeneous run rejected: %v", err)
	}
}

func TestRunAssignedMatchesRunForUniformProtocol(t *testing.T) {
	cfg := config.MustNew(graph.Cycle(5), []int{0, 1, 0, 2, 1})
	proto := drip.WakeupFlood{Delay: 1, Quiet: 2}
	uniform, err := Sequential{}.Run(cfg, proto, Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	protos := make([]drip.Protocol, cfg.N())
	for v := range protos {
		protos[v] = proto
	}
	assigned, err := RunAssigned(cfg, protos, Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	for v := 0; v < cfg.N(); v++ {
		if !uniform.Histories[v].Equal(assigned.Histories[v]) {
			t.Fatalf("assigned run diverged from uniform run at node %d", v)
		}
	}
	if uniform.GlobalRounds != assigned.GlobalRounds {
		t.Fatalf("round counts differ: %d vs %d", uniform.GlobalRounds, assigned.GlobalRounds)
	}
}

// identityBeacon is a per-node protocol that transmits the node's identifier
// once and records what it heard; used to check that heterogeneous protocols
// really act independently.
type identityBeacon struct {
	id    int
	round int
}

func (p identityBeacon) Act(h history.Vector) drip.Action {
	i := len(h)
	switch {
	case i == p.round:
		return drip.TransmitAction(strconv.Itoa(p.id))
	case i > p.round+2:
		return drip.TerminateAction()
	default:
		return drip.ListenAction()
	}
}

func TestRunAssignedHeterogeneousBehaviour(t *testing.T) {
	// A path 0-1-2 where node 0 announces itself in round 1 and node 2 in
	// round 2; node 1 listens and must hear both identifiers in order.
	cfg := config.MustNew(graph.Path(3), []int{0, 0, 0})
	protos := []drip.Protocol{
		identityBeacon{id: 0, round: 1},
		drip.ListenForever{Rounds: 4},
		identityBeacon{id: 2, round: 2},
	}
	res, err := RunAssigned(cfg, protos, Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	h := res.Histories[1]
	if h[1].Kind != history.Message || h[1].Msg != "0" {
		t.Fatalf("node 1 round 1 should hear node 0: %v", h)
	}
	if h[2].Kind != history.Message || h[2].Msg != "2" {
		t.Fatalf("node 1 round 2 should hear node 2: %v", h)
	}
	// Node 0 hears node 2's transmission only if adjacent — it is not, so it
	// hears silence in round 2.
	if res.Histories[0][2].Kind != history.Silence {
		t.Fatalf("node 0 should not hear node 2: %v", res.Histories[0])
	}
}

func TestRunAssignedCollisionBetweenDifferentProtocols(t *testing.T) {
	// Both endpoints of a path transmit different messages in the same round:
	// the middle node must record noise.
	cfg := config.MustNew(graph.Path(3), []int{0, 0, 0})
	protos := []drip.Protocol{
		identityBeacon{id: 0, round: 1},
		drip.ListenForever{Rounds: 3},
		identityBeacon{id: 2, round: 1},
	}
	res, err := RunAssigned(cfg, protos, Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if res.Histories[1][1].Kind != history.Noise {
		t.Fatalf("middle node should detect the collision: %v", res.Histories[1])
	}
}

func TestOptionsMaxRoundsDefault(t *testing.T) {
	if (Options{}).maxRounds() != DefaultMaxRounds {
		t.Fatalf("default max rounds wrong")
	}
	if (Options{MaxRounds: 7}).maxRounds() != 7 {
		t.Fatalf("explicit max rounds wrong")
	}
	if (Options{MaxRounds: -1}).maxRounds() != DefaultMaxRounds {
		t.Fatalf("negative max rounds should fall back to the default")
	}
}
