package radio

import (
	"fmt"
	"sync"

	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/history"
)

// GoroutinePerNode is the original goroutine-per-node simulation engine.
// Each node of the configuration is a long-lived goroutine that owns its
// history vector and computes its protocol actions; a coordinator implements
// the shared radio medium and the global round barrier.
//
// Per global round the coordinator:
//
//  1. signals every active node goroutine to choose an action for its next
//     local round (the protocol computations run in parallel across nodes);
//  2. collects the actions, resolves collisions, and decides what every node
//     hears, which nodes wake up, and which terminate;
//  3. delivers each active node its perception so it can extend its history;
//  4. spawns goroutines for nodes that woke up this round.
//
// The per-round channel traffic (two operations per node per round) and the
// per-node goroutine state make this engine allocate on every round, so it
// serves no production path. It lives on in the tests as the differential
// oracle: it exercises the model semantics through a completely independent
// mechanism, and the test suite checks bit-identical histories against the
// Simulator on randomized workloads.
type GoroutinePerNode struct{}

// Name implements Engine.
func (GoroutinePerNode) Name() string { return "goroutine-per-node" }

// nodeCmd is the coordinator->node message starting one local round.
type nodeCmd struct{}

// nodeReply is the node->coordinator message carrying the chosen action.
type nodeReply struct {
	id     int
	action drip.Action
}

// nodePercept is the coordinator->node message closing one local round.
type nodePercept struct {
	entry history.Entry
	// stop is true when the node must record the entry, report its final
	// state on the finals channel and exit.
	stop bool
}

// nodeFinal is the node->coordinator message sent when a node terminates.
type nodeFinal struct {
	id        int
	hist      history.Vector
	doneLocal int
}

// concNode is the per-goroutine node process.
type concNode struct {
	id      int
	proto   drip.Protocol
	hist    history.Vector
	cmd     chan nodeCmd
	percept chan nodePercept
	replies chan<- nodeReply
	finals  chan<- nodeFinal
}

func (nd *concNode) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for range nd.cmd {
		action := nd.proto.Act(nd.hist)
		nd.replies <- nodeReply{id: nd.id, action: action}
		p := <-nd.percept
		nd.hist = append(nd.hist, p.entry)
		if p.stop {
			nd.finals <- nodeFinal{id: nd.id, hist: nd.hist, doneLocal: len(nd.hist) - 1}
			return
		}
	}
}

// concMeta is the coordinator's bookkeeping for one node.
type concMeta struct {
	awake      bool
	running    bool // goroutine exists and has not terminated
	terminated bool
	wakeRound  int
	forced     bool
	doneLocal  int
	hist       history.Vector // filled in at termination
}

// Run implements Engine.
func (GoroutinePerNode) Run(cfg *config.Config, proto drip.Protocol, opts Options) (*Result, error) {
	if err := validate(cfg, proto); err != nil {
		return nil, err
	}
	n := cfg.N()
	g := cfg.Graph()
	maxRounds := opts.maxRounds()

	// Fault seam, mirrored from the Simulator core: decisions are pure
	// functions of (seed, round, node), so this independent coordinator
	// produces faulted histories bit-identical to the Simulator engines.
	fp, err := opts.plan(n)
	if err != nil {
		return nil, err
	}
	var depth []int32
	if fp != nil && len(fp.Outages) > 0 {
		depth = make([]int32, n)
	}
	// Injected-fault accounting, identical to the Simulator core's: every
	// count site runs on this coordinator goroutine, so plain counters are
	// race-free and the two engine families report identical FaultStats.
	var fs FaultStats
	downNow := 0

	var trace *Trace
	if opts.RecordTrace {
		trace = &Trace{}
	}

	metas := make([]concMeta, n)
	for v := range metas {
		metas[v].wakeRound = -1
		metas[v].doneLocal = -1
	}

	nodes := make([]*concNode, n)
	replies := make(chan nodeReply, n)
	finals := make(chan nodeFinal, n)
	var wg sync.WaitGroup

	spawn := func(v int, initial history.Entry) {
		nd := &concNode{
			id:      v,
			proto:   proto,
			hist:    history.Vector{initial},
			cmd:     make(chan nodeCmd, 1),
			percept: make(chan nodePercept, 1),
			replies: replies,
			finals:  finals,
		}
		nodes[v] = nd
		wg.Add(1)
		go nd.run(&wg)
	}

	// shutdown closes the command channels of all still-running nodes (which
	// are blocked waiting for the next round) so their goroutines exit.
	shutdown := func() {
		for v, nd := range nodes {
			if nd != nil && metas[v].running {
				close(nd.cmd)
				metas[v].running = false
			}
		}
		wg.Wait()
	}

	remaining := n
	lastActive := 0
	actions := make([]drip.Action, n)
	acting := make([]bool, n)

	for round := 0; remaining > 0; round++ {
		if round >= maxRounds {
			shutdown()
			return concResult(metas, round, trace, fs), fmt.Errorf("%w: %d rounds simulated, %d nodes still running", ErrRoundLimit, round, remaining)
		}

		if depth != nil {
			downNow += fp.applyOutages(round, depth)
			fs.OutageRounds += int64(downNow)
		}

		// Step 1: ask every running node that woke up in an earlier round
		// for its action; the Act computations run concurrently inside the
		// node goroutines.
		expected := 0
		for v := 0; v < n; v++ {
			acting[v] = false
			m := &metas[v]
			if !m.running || m.wakeRound == round {
				continue
			}
			acting[v] = true
			nodes[v].cmd <- nodeCmd{}
			expected++
		}
		transmitting := make([]bool, n)
		messages := make([]string, n)
		for i := 0; i < expected; i++ {
			r := <-replies
			actions[r.id] = r.action
			if r.action.Kind == drip.Transmit {
				transmitting[r.id] = true
				messages[r.id] = r.action.Msg
			}
		}

		// Step 2: resolve the medium, skipping outaged endpoints and dropped
		// deliveries under a fault plan.
		counts := make([]int, n)
		single := make([]string, n)
		for v := 0; v < n; v++ {
			if !transmitting[v] || down(depth, v) {
				continue
			}
			for _, nb := range g.Neighbors(v) {
				w := int(nb)
				if fp != nil {
					if down(depth, w) {
						continue
					}
					if fp.dropsDelivery(round, v, w) {
						fs.Drops++
						continue
					}
				}
				counts[w]++
				single[w] = messages[v]
			}
		}

		var rec RoundRecord
		if trace != nil {
			rec = RoundRecord{Global: round, Heard: make(map[int]history.Entry)}
			for v := 0; v < n; v++ {
				if transmitting[v] {
					rec.Transmitters = append(rec.Transmitters, v)
					rec.Messages = append(rec.Messages, messages[v])
				}
			}
		}

		// Step 3: wake-ups. The new node goroutine starts acting from the
		// next round, exactly like in the sequential engine.
		for v := 0; v < n; v++ {
			m := &metas[v]
			if m.awake {
				continue
			}
			cnt, msg := counts[v], single[v]
			if fp != nil {
				cnt, msg = fp.perceive(cnt, msg, round, v, depth, &fs)
			}
			spontaneous := cfg.Tag(v) == round
			forced := cnt == 1
			if !spontaneous && !forced {
				continue
			}
			m.awake = true
			m.running = true
			m.wakeRound = round
			m.forced = forced
			entry := wakeEntry(cnt, msg)
			spawn(v, entry)
			if trace != nil {
				rec.Woke = append(rec.Woke, v)
				if cnt > 0 {
					rec.Heard[v] = entry
				}
			}
			lastActive = round
		}

		// Step 4: deliver perceptions; nodes whose action was Terminate (or
		// invalid) are stopped and their final histories harvested.
		var runErr error
		stopping := 0
		for v := 0; v < n; v++ {
			if !acting[v] {
				continue
			}
			m := &metas[v]
			var p nodePercept
			switch actions[v].Kind {
			case drip.Transmit:
				p = nodePercept{entry: history.Silent()}
				lastActive = round
			case drip.Listen:
				cnt, msg := counts[v], single[v]
				if fp != nil {
					cnt, msg = fp.perceive(cnt, msg, round, v, depth, &fs)
				}
				p = nodePercept{entry: listenEntry(cnt, msg)}
				if trace != nil && p.entry.Kind != history.Silence {
					rec.Heard[v] = p.entry
				}
				if cnt > 0 {
					lastActive = round
				}
			case drip.Terminate:
				p = nodePercept{entry: history.Silent(), stop: true}
				m.terminated = true
				stopping++
				remaining--
				if trace != nil {
					rec.Terminated = append(rec.Terminated, v)
				}
				lastActive = round
			default:
				// Invalid protocol output: stop the node to avoid deadlock
				// and report the error after finishing the round.
				if runErr == nil {
					runErr = fmt.Errorf("radio: protocol returned invalid action %v for node %d", actions[v], v)
				}
				p = nodePercept{entry: history.Silent(), stop: true}
				m.terminated = true
				stopping++
				remaining--
			}
			nodes[v].percept <- p
		}

		// Harvest final states of nodes stopped this round.
		for i := 0; i < stopping; i++ {
			f := <-finals
			m := &metas[f.id]
			m.hist = f.hist
			m.doneLocal = f.doneLocal
			m.running = false
			close(nodes[f.id].cmd)
		}

		trace.addRound(rec)

		if runErr != nil {
			shutdown()
			return nil, runErr
		}
	}

	wg.Wait()
	return concResult(metas, lastActive+1, trace, fs), nil
}

// concResult assembles the Result from the coordinator's bookkeeping. For
// nodes that never terminated (round-limit case) the history still held by
// the node goroutine is unavailable, so their recorded history is empty;
// callers treat ErrRoundLimit results as diagnostic only.
func concResult(metas []concMeta, rounds int, trace *Trace, fs FaultStats) *Result {
	n := len(metas)
	res := &Result{
		Histories:    make([]history.Vector, n),
		WakeRound:    make([]int, n),
		Forced:       make([]bool, n),
		DoneLocal:    make([]int, n),
		GlobalRounds: rounds,
		Trace:        trace,
		Faults:       fs,
	}
	for v := range metas {
		res.Histories[v] = metas[v].hist
		res.WakeRound[v] = metas[v].wakeRound
		res.Forced[v] = metas[v].forced
		res.DoneLocal[v] = metas[v].doneLocal
	}
	return res
}

// validate checks the oracle's simulation inputs.
func validate(cfg *config.Config, proto drip.Protocol) error {
	if cfg == nil {
		return fmt.Errorf("radio: nil configuration")
	}
	if proto == nil {
		return fmt.Errorf("radio: nil protocol")
	}
	return nil
}
