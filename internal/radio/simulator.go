package radio

import (
	"fmt"
	"slices"

	"anonradio/internal/arena"
	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/graph"
	"anonradio/internal/history"
)

// ListenScheduler is the opt-in through which a protocol lets the Simulator
// skip its unconditional listen rounds. ListenUntil(i) returns the first
// local round r >= i in which Act may return anything but Listen, whatever
// the history. The simulator then consults the protocol next in local round
// r; in the rounds before it the node listens without being asked.
//
// Protocols that do not implement it are consulted every round. Run honours
// it; RunProtocols, whose nodes run different protocols, consults every node
// every round.
type ListenScheduler interface {
	ListenUntil(i int) int
}

// CodedProtocol is the opt-in through which a protocol that transmits a
// single message lets the Simulator record its histories in one byte per
// entry: history.CodeSilence, CodeMessage (the message CodedMessage names)
// and CodeNoise. ActCodes(h) must return what Act returns on the decoded
// history. A coded protocol that transmits any other message fails the run:
// its histories have no code for it.
//
// Run and RunCodes honour it; RunProtocols records vectors.
type CodedProtocol interface {
	CodedMessage() string
	ActCodes(h []byte) drip.Action
}

// Simulator is a reusable sequential simulation engine bound to one
// configuration. All per-node and per-round buffers — medium state, the
// agenda, history backing arrays, the result itself — are allocated once
// and reused across runs, so from the second Run onwards the engine's own
// round loop performs no heap allocations (protocols may of course allocate
// inside Act, and traced runs record per-round transcripts).
//
// The round loop is event-driven. A round costs work only for the nodes
// that must consult their protocol, the neighbourhoods of the round's
// transmitters, and the nodes whose wake-up tag fires:
//
//   - An agenda holds, per global round, the list of nodes due to consult
//     their protocol; every awake node has exactly one pending consult. A
//     node is due every round unless its protocol implements
//     ListenScheduler, which lets the agenda skip the node's unconditional
//     listen rounds. The executor is handed only the round's due list.
//   - A node that is awake but not due listens. It records only what it
//     hears, and in a clean medium only the neighbours of transmitters hear
//     anything.
//   - A round with a clean medium and exactly one transmitter cannot
//     collide: its message goes straight to each neighbour, waking sleepers
//     and recorded by running listeners, in one walk of the neighbourhood.
//   - Two or more transmitters, and any transmitter under a fault plan,
//     resolve through the transmitter medium (counts of transmitting
//     neighbours, pending single messages), which is reset through a dirty
//     list of exactly the entries they wrote.
//   - A CodedProtocol's histories are recorded as one byte code per entry;
//     every other protocol's as history.Entry values.
//   - Silence is the zero code (the zero history.Entry) and is written
//     lazily: a node's skipped silent entries are filled in before it
//     consults its protocol, before it records a heard entry, and when a
//     run is cut off by its round limit.
//   - Spontaneous wake-ups come from a tag-ordered node list; forced ones
//     from the lone delivery or the dirty list.
//   - Under a fault plan any node may perceive noise in any round, so one
//     dense pass per round perceives for every sleeping node and every
//     listener, making exactly the perception calls the model prescribes.
//
// The Result returned by Run points into the simulator's reusable buffers:
// it is valid until the next Run on the same Simulator. Callers that need
// to retain results across runs must copy them (or use the one-shot
// Sequential engine, which dedicates a fresh Simulator per call).
//
// The consult step of each round runs through a pluggable Executor:
// NewSimulator installs the inline (single-threaded) executor and
// NewParallelSimulator installs a persistent worker pool that shards the
// due list across goroutines. Both produce bit-identical results; see the
// Executor doc for why.
//
// A Simulator is not safe for concurrent use; give each goroutine its own.
type Simulator struct {
	cfg  *config.Config
	csr  graph.CSR
	exec Executor

	states       []nodeState
	protos       []drip.Protocol
	actions      []drip.Action
	transmitting []bool
	counts       []int32  // transmitting-neighbour count per node
	single       []string // pending message when counts is exactly 1
	touched      []int32  // nodes whose counts/single entries are dirty
	faultDepth   []int32  // per-node outage depth; allocated on first faulted run with outages

	// The agenda. next lists the nodes due to consult their protocol in the
	// following round; further ahead, heads[r] is the first node due in
	// global round r (-1: none) and link[v] the node due after v in the same
	// round. heads grows on demand, never past the run's round limit.
	// Next-round consults bypass the calendar's links, so protocols
	// consulted every round pay one append per node-round for the agenda.
	next  []int32
	heads []int32
	link  []int32
	// due is the previous round's due list, whose buffer collects next once
	// the round starts; within a round the due list is compacted in place
	// to the round's transmitters after the consult step.
	due []int32
	// byTag lists the nodes in ascending wake-up tag order.
	byTag []int32
	// sched is the running protocol's ListenScheduler; nil when it has none
	// or the nodes run different protocols.
	sched ListenScheduler
	// coder is the running protocol when it is a CodedProtocol, and msg its
	// coded message; coder is nil in a run that records vectors.
	coder     CodedProtocol
	msg       string
	maxRounds int

	res Result
}

// nodeState is the simulator's per-node bookkeeping. A running node's
// history may lag behind its local round: the missing tail is silence,
// written lazily. A coded run records codes, a vector run hist; Run
// materializes hist from the codes at the end of a coded run.
type nodeState struct {
	awake      bool
	terminated bool
	wakeRound  int
	forced     bool
	doneLocal  int
	codes      []byte
	hist       history.Vector
}

// NewSimulator validates cfg and builds a reusable simulator for it, with
// the inline (single-threaded) executor.
func NewSimulator(cfg *config.Config) (*Simulator, error) {
	return NewSimulatorExecutor(cfg, NewInlineExecutor())
}

// NewParallelSimulator builds a reusable simulator whose consult step is
// sharded across a persistent pool of `workers` goroutines (workers <= 0
// selects GOMAXPROCS). Call Close when done to stop the pool; the
// simulator's buffers (and any Result pointing into them) stay valid after
// Close.
func NewParallelSimulator(cfg *config.Config, workers int) (*Simulator, error) {
	sim, err := NewSimulatorExecutor(cfg, NewPoolExecutor(workers))
	if err != nil {
		return nil, err
	}
	return sim, nil
}

// NewSimulatorExecutor validates cfg and builds a reusable simulator that
// runs its consult step on the given executor. The simulator takes
// ownership of the executor: Close releases it.
func NewSimulatorExecutor(cfg *config.Config, exec Executor) (*Simulator, error) {
	if cfg == nil {
		if exec != nil {
			exec.Close()
		}
		return nil, fmt.Errorf("radio: nil configuration")
	}
	if err := cfg.Validate(); err != nil {
		if exec != nil {
			exec.Close()
		}
		return nil, fmt.Errorf("radio: invalid configuration: %w", err)
	}
	if exec == nil {
		exec = NewInlineExecutor()
	}
	n := cfg.N()
	return &Simulator{
		cfg:          cfg,
		csr:          cfg.Graph().CSR(),
		exec:         exec,
		states:       make([]nodeState, n),
		protos:       make([]drip.Protocol, n),
		actions:      make([]drip.Action, n),
		transmitting: make([]bool, n),
		counts:       make([]int32, n),
		single:       make([]string, n),
		touched:      make([]int32, 0, n),
		next:         make([]int32, 0, n),
		link:         make([]int32, n),
		due:          make([]int32, 0, n),
		byTag:        tagOrder(nil, cfg),
	}, nil
}

// Reset rebinds the simulator to a different configuration, reusing every
// internal buffer the new configuration fits in: the CSR adjacency, the
// per-node state (including history backing arrays), the medium scratch,
// the agenda and the result buffers are all retained, so re-binding a warm
// simulator across a stream of same-sized configurations allocates nothing.
// The executor is kept as well. It is the build-path counterpart of the
// zero-alloc round loop: services that admit configurations repeatedly (the
// election registry's build arena) re-use one simulator instead of
// constructing one per admission.
//
// Any Result returned by a previous Run is invalidated.
//
// Reset performs only allocation-free shape checks; unlike the constructors
// it does not re-run the connectivity traversal of Config.Validate, so the
// caller must pass a configuration that already passed full validation (the
// build paths hand over configurations that came out of a Classifier run).
func (s *Simulator) Reset(cfg *config.Config) error {
	if cfg == nil {
		return fmt.Errorf("radio: nil configuration")
	}
	n := cfg.N()
	if n == 0 {
		return fmt.Errorf("radio: empty configuration")
	}
	for v := 0; v < n; v++ {
		if cfg.Tag(v) < 0 {
			return fmt.Errorf("radio: node %d has negative tag %d", v, cfg.Tag(v))
		}
	}
	s.cfg = cfg
	s.csr = cfg.Graph().CSRInto(s.csr)
	s.states = growStates(s.states, n)
	s.protos = arena.Grow(s.protos, n)
	s.actions = arena.Grow(s.actions, n)
	s.transmitting = arena.Grow(s.transmitting, n)
	// The round loop relies on the medium being all-clean; clearing here is
	// simpler than reasoning about dirt left by aborted runs or by entries
	// that fell outside a smaller intermediate configuration.
	s.counts = arena.Grow(s.counts, n)
	clear(s.counts)
	s.single = arena.Grow(s.single, n)
	clear(s.single)
	s.touched = s.touched[:0]
	s.next = arena.Grow(s.next, n)[:0]
	s.link = arena.Grow(s.link, n)
	s.due = arena.Grow(s.due, n)[:0]
	s.byTag = tagOrder(s.byTag, cfg)
	return nil
}

// growStates is arena.Grow for the node-state slice, preserving the history
// backing arrays of existing entries so they keep amortizing across runs.
func growStates(states []nodeState, n int) []nodeState {
	if cap(states) < n {
		grown := make([]nodeState, n)
		copy(grown, states)
		return grown
	}
	return states[:n]
}

// tagOrder fills order with cfg's nodes in ascending wake-up tag order.
func tagOrder(order []int32, cfg *config.Config) []int32 {
	order = arena.Grow(order, cfg.N())
	for v := range order {
		order[v] = int32(v)
	}
	slices.SortFunc(order, func(a, b int32) int { return cfg.Tag(int(a)) - cfg.Tag(int(b)) })
	return order
}

// Config returns the configuration the simulator is bound to.
func (s *Simulator) Config() *config.Config { return s.cfg }

// ExecutorName identifies the executor the simulator schedules its consult
// step on.
func (s *Simulator) ExecutorName() string { return s.exec.Name() }

// Close releases the simulator's executor (stopping pool workers, if any).
// The buffers — including any Result returned by a previous Run — remain
// valid; only further Runs are forbidden.
func (s *Simulator) Close() {
	if s.exec != nil {
		s.exec.Close()
	}
}

// Run executes proto identically on every node (the anonymous model) and
// returns the result. A CodedProtocol runs on codes, which Run then decodes
// into Result.Histories, so every protocol's result carries its history
// vectors. See the Simulator doc comment for the lifetime of the returned
// Result.
func (s *Simulator) Run(proto drip.Protocol, opts Options) (*Result, error) {
	if proto == nil {
		return nil, fmt.Errorf("radio: nil protocol")
	}
	if coder, ok := proto.(CodedProtocol); ok {
		res, err := s.RunCodes(coder, opts)
		if res != nil {
			s.materialize(res)
		}
		return res, err
	}
	for v := range s.protos {
		s.protos[v] = proto
	}
	s.sched, _ = proto.(ListenScheduler)
	s.coder = nil
	return s.run(opts)
}

// RunCodes is Run for a coded protocol without the decoding: the result's
// Codes hold the histories and its Histories is empty. It is the serving
// path's run, which never builds a history vector.
func (s *Simulator) RunCodes(proto CodedProtocol, opts Options) (*Result, error) {
	if proto == nil {
		return nil, fmt.Errorf("radio: nil protocol")
	}
	s.sched, _ = proto.(ListenScheduler)
	s.coder, s.msg = proto, proto.CodedMessage()
	return s.run(opts)
}

// RunProtocols executes a heterogeneous system in which node v runs
// protos[v], on the same zero-alloc round loop as Run: all buffers are
// reused across runs, so repeated heterogeneous workloads (the labeled
// baselines, mixed-protocol experiments) are allocation-free in steady
// state. Every node is consulted every round. The protocols are copied into
// the simulator's own table, so the caller may reuse or mutate the slice
// afterwards.
func (s *Simulator) RunProtocols(protos []drip.Protocol, opts Options) (*Result, error) {
	if len(protos) != s.cfg.N() {
		return nil, fmt.Errorf("radio: %d protocols for %d nodes", len(protos), s.cfg.N())
	}
	for v, p := range protos {
		if p == nil {
			return nil, fmt.Errorf("radio: nil protocol for node %d", v)
		}
	}
	copy(s.protos, protos)
	s.sched, s.coder = nil, nil
	return s.run(opts)
}

// run is the engine's round loop. The step structure follows the model
// definition (see the package comment): the due nodes choose their actions
// (terminations are recorded here), the medium is resolved, then wake-ups
// and what the listeners hear are recorded.
func (s *Simulator) run(opts Options) (*Result, error) {
	n := s.cfg.N()
	// Fault seam: fp is nil for a clean medium (including an empty plan), so
	// the clean path pays exactly one pointer check per guarded step. The
	// outage-depth scratch is part of the simulator and reused across runs —
	// faulted steady-state runs allocate nothing either.
	fp, err := opts.plan(n)
	if err != nil {
		return nil, err
	}
	var depth []int32
	if fp != nil && len(fp.Outages) > 0 {
		s.faultDepth = arena.Grow(s.faultDepth, n)
		clear(s.faultDepth)
		depth = s.faultDepth
	}
	// Injected-fault accounting for Result.Faults; all zero on the clean
	// path (and left untouched by it). downNow tracks how many nodes are
	// currently inside an outage window, from applyOutages deltas.
	var fs FaultStats
	downNow := 0
	for v := range s.states {
		st := &s.states[v]
		*st = nodeState{wakeRound: -1, doneLocal: -1, codes: st.codes[:0], hist: st.hist[:0]}
	}

	var trace *Trace
	if opts.RecordTrace {
		trace = &Trace{}
	}

	s.maxRounds = opts.maxRounds()
	remaining := n // nodes that have not yet terminated
	lastActive := 0
	tagged := 0 // prefix of byTag whose tag round has been processed
	// A run that returned mid-round (round limit, invalid protocol action)
	// may have left medium entries on the touched list, transmit flags set
	// and consults pending on the agenda; restore the all-clean state the
	// round loop relies on.
	for _, w := range s.touched {
		s.counts[w] = 0
		s.single[w] = ""
	}
	s.touched = s.touched[:0]
	clear(s.transmitting)
	s.next = s.next[:0]
	s.heads = s.heads[:0]

	for round := 0; remaining > 0; round++ {
		if round >= s.maxRounds {
			s.padRunning(round)
			return s.buildResult(round, trace, fs), fmt.Errorf("%w: %d rounds simulated, %d nodes still running", ErrRoundLimit, round, remaining)
		}

		if depth != nil {
			downNow += fp.applyOutages(round, depth)
			fs.OutageRounds += int64(downNow)
		}

		var rec *RoundRecord
		if trace != nil {
			rec = &RoundRecord{Global: round, Heard: make(map[int]history.Entry)}
		}

		// Step 1: the nodes due this round consult their protocol. The
		// executor decides the schedule of the Act calls (inline loop or
		// worker-pool shards); the computed actions are identical either
		// way. Every other awake node listens this round.
		due := s.next
		if round < len(s.heads) {
			for v := s.heads[round]; v >= 0; v = s.link[v] {
				due = append(due, v)
			}
		}
		s.next, s.due = s.due[:0], due
		if len(due) > 0 {
			s.exec.act(s, round, due)
		}
		// Apply the actions, compacting the due list to the transmitters.
		tx := due[:0]
		bad := -1
		for _, v := range due {
			switch s.actions[v].Kind {
			case drip.Transmit:
				if s.coder != nil && s.actions[v].Msg != s.msg {
					// A coded history has no code for this message.
					bad = minBad(bad, v)
					continue
				}
				s.transmitting[v] = true
				tx = append(tx, v)
				s.schedule(v, round)
				lastActive = round
			case drip.Listen:
				s.schedule(v, round)
			case drip.Terminate:
				st := &s.states[v]
				st.terminated = true
				if s.coder != nil {
					st.doneLocal = len(st.codes)
					st.codes = append(st.codes, history.CodeSilence)
				} else {
					st.doneLocal = len(st.hist)
					st.hist = append(st.hist, history.Silent())
				}
				remaining--
				if rec != nil {
					rec.Terminated = append(rec.Terminated, int(v))
				}
				lastActive = round
			default:
				bad = minBad(bad, v)
			}
		}
		if bad >= 0 {
			if s.actions[bad].Kind == drip.Transmit {
				return nil, fmt.Errorf("radio: coded protocol transmitted %q for node %d; its histories code only %q", s.actions[bad].Msg, bad, s.msg)
			}
			return nil, fmt.Errorf("radio: protocol returned invalid action %v for node %d", s.actions[bad], bad)
		}

		// Step 2: resolve the radio medium: count transmitting neighbours of
		// every node and remember the message when the count is exactly one.
		// Only the neighbourhoods of transmitters are written, and only
		// those entries are reset at the end of the round. Under a fault
		// plan, an outaged transmitter delivers nothing, an outaged receiver
		// counts nothing, and each surviving delivery is independently
		// dropped; the decisions depend only on (seed, round, v, w), never
		// on the schedule. A lone transmitter in a clean medium cannot
		// collide: step 3 delivers its message straight to its neighbours,
		// and the medium stays all-zero.
		lone := fp == nil && len(tx) == 1
		for _, v := range tx {
			if lone || (fp != nil && down(depth, int(v))) {
				continue
			}
			msg := s.actions[v].Msg
			for _, w := range s.csr.Neighbors(int(v)) {
				if fp != nil {
					if down(depth, int(w)) {
						continue
					}
					if fp.dropsDelivery(round, int(v), int(w)) {
						fs.Drops++
						continue
					}
				}
				if s.counts[w] == 0 {
					s.touched = append(s.touched, w)
				}
				s.counts[w]++
				s.single[w] = msg
			}
		}
		if rec != nil {
			for _, v := range tx {
				rec.Transmitters = append(rec.Transmitters, int(v))
			}
			slices.Sort(rec.Transmitters)
			for _, v := range rec.Transmitters {
				rec.Messages = append(rec.Messages, s.actions[v].Msg)
			}
		}

		// Step 3: wake-ups and listening. A sleeping node wakes
		// spontaneously when the global round equals its tag, or by force
		// when it receives a message (exactly one transmitting neighbour).
		// Every awake node that neither woke, transmitted nor terminated
		// this round listens. Faults act on the node's perception: an
		// outaged node hears silence (no forced wake), injected noise is a
		// collision (which never wakes, per the model's corner-case rules);
		// spontaneous tag wake-ups always fire — the wake-up tag is a clock,
		// not a radio event.
		if lone {
			// Every neighbour of the lone transmitter perceives exactly its
			// message; the transmitter set lastActive in step 1.
			msg := s.actions[tx[0]].Msg
			for _, w := range s.csr.Neighbors(int(tx[0])) {
				st := &s.states[w]
				switch {
				case !st.awake:
					s.wake(int(w), round, 1, msg, rec)
				case !st.terminated:
					s.hear(int(w), round, 1, msg, rec)
				}
			}
		}
		if fp == nil {
			// Clean medium: only the transmitters' neighbours hear anything,
			// so the lone delivery or the touched list yields every forced
			// wake-up and every non-silent listen entry, and the tag order
			// yields the spontaneous wake-ups, reading a zero count for
			// every node the round did not reach.
			for _, w := range s.touched {
				st := &s.states[w]
				cnt := int(s.counts[w])
				switch {
				case !st.awake:
					if cnt == 1 {
						s.wake(int(w), round, cnt, s.single[w], rec)
						lastActive = round
					}
				case !st.terminated && !s.transmitting[w]:
					s.hear(int(w), round, cnt, s.single[w], rec)
					lastActive = round
				}
			}
			for ; tagged < n; tagged++ {
				v := int(s.byTag[tagged])
				if s.cfg.Tag(v) != round {
					break
				}
				if !s.states[v].awake {
					s.wake(v, round, int(s.counts[v]), s.single[v], rec)
					lastActive = round
				}
			}
		} else {
			// Faulted medium: noise may reach any node, so one dense pass
			// perceives for every sleeping node and every listener.
			for v := 0; v < n; v++ {
				st := &s.states[v]
				if st.awake && (st.terminated || s.transmitting[v]) {
					continue
				}
				cnt, msg := fp.perceive(int(s.counts[v]), s.single[v], round, v, depth, &fs)
				switch {
				case !st.awake:
					if s.cfg.Tag(v) == round || cnt == 1 {
						s.wake(v, round, cnt, msg, rec)
						lastActive = round
					}
				case cnt > 0:
					s.hear(v, round, cnt, msg, rec)
					lastActive = round
				}
			}
		}

		if rec != nil {
			slices.Sort(rec.Woke)
			slices.Sort(rec.Terminated)
			trace.addRound(*rec)
		}

		// Reset the medium for the next round, touching only the entries the
		// round's transmitters dirtied.
		for _, w := range s.touched {
			s.counts[w] = 0
			s.single[w] = ""
		}
		s.touched = s.touched[:0]
		for _, v := range tx {
			s.transmitting[v] = false
		}
	}

	return s.buildResult(lastActive+1, trace, fs), nil
}

// minBad returns the lower of the node bad (-1: none) and v.
func minBad(bad int, v int32) int {
	if bad < 0 || int(v) < bad {
		return int(v)
	}
	return bad
}

// actDue performs the consult step for the nodes of due: each node's
// skipped silent entries are written, then its protocol's action for the
// round is recorded. Every write is indexed by the node, so concurrent
// actDue calls on disjoint parts of the due list are race-free.
func (s *Simulator) actDue(round int, due []int32) {
	if s.coder != nil {
		for _, v := range due {
			st := &s.states[v]
			st.codes = padCodes(st.codes, round-st.wakeRound)
			s.actions[v] = s.coder.ActCodes(st.codes)
		}
		return
	}
	for _, v := range due {
		st := &s.states[v]
		st.hist = padSilence(st.hist, round-st.wakeRound)
		s.actions[v] = s.protos[v].Act(st.hist)
	}
}

// schedule queues node v's next consult after the given round: in the
// following round, or later when the protocol declares the rounds in
// between unconditional listens.
func (s *Simulator) schedule(v int32, round int) {
	if s.sched == nil {
		s.next = append(s.next, v)
		return
	}
	s.scheduleAhead(v, round)
}

// scheduleAhead is schedule for a protocol with a ListenScheduler, kept
// apart so that schedule stays small enough to inline into the round loop.
// A consult at or past the round limit is never reached, so it is not put
// on the calendar.
func (s *Simulator) scheduleAhead(v int32, round int) {
	wake := s.states[v].wakeRound
	r := max(round+1, wake+s.sched.ListenUntil(round+1-wake))
	if r == round+1 {
		s.next = append(s.next, v)
		return
	}
	if r >= s.maxRounds {
		return
	}
	if r >= len(s.heads) {
		s.growAgenda(r)
	}
	s.link[v] = s.heads[r]
	s.heads[r] = v
}

// growAgenda extends the agenda to cover round r, at least doubling it but
// never past the round limit, so a bounded run (elections pass their round
// bound) sizes it from the limit.
func (s *Simulator) growAgenda(r int) {
	old := len(s.heads)
	size := min(max(r+1, 2*old), s.maxRounds)
	if size > cap(s.heads) {
		grown := make([]int32, size)
		copy(grown, s.heads)
		s.heads = grown
	}
	s.heads = s.heads[:size]
	for i := old; i < size; i++ {
		s.heads[i] = -1
	}
}

// wake makes sleeping node v wake up in the given round, having perceived
// cnt transmitting neighbours (msg when exactly one), and queues its first
// consult.
func (s *Simulator) wake(v, round, cnt int, msg string, rec *RoundRecord) {
	st := &s.states[v]
	st.awake = true
	st.wakeRound = round
	st.forced = cnt == 1
	if s.coder != nil {
		st.codes = append(st.codes, entryCode(cnt))
	} else {
		st.hist = append(st.hist, wakeEntry(cnt, msg))
	}
	s.schedule(int32(v), round)
	if rec != nil {
		rec.Woke = append(rec.Woke, v)
		if cnt > 0 {
			rec.Heard[v] = wakeEntry(cnt, msg)
		}
	}
}

// hear records the entry of listening node v, which perceived cnt > 0
// transmitting neighbours this round.
func (s *Simulator) hear(v, round, cnt int, msg string, rec *RoundRecord) {
	st := &s.states[v]
	if s.coder != nil {
		st.codes = append(padCodes(st.codes, round-st.wakeRound), entryCode(cnt))
	} else {
		st.hist = append(padSilence(st.hist, round-st.wakeRound), listenEntry(cnt, msg))
	}
	if rec != nil {
		rec.Heard[v] = listenEntry(cnt, msg)
	}
}

// padRunning writes the skipped silent entries of every running node up to
// the given global round, exclusive: a run cut off there reports every
// round a node was awake for.
func (s *Simulator) padRunning(round int) {
	for v := range s.states {
		st := &s.states[v]
		switch {
		case !st.awake || st.terminated:
		case s.coder != nil:
			st.codes = padCodes(st.codes, round-st.wakeRound)
		default:
			st.hist = padSilence(st.hist, round-st.wakeRound)
		}
	}
}

// padSilence extends h with silent (zero) entries to length l. It appends
// entry by entry: most pads are a round or two, where a bulk clear costs
// more than the stores, and capacity grows exactly as recording the
// history round by round would grow it.
func padSilence(h history.Vector, l int) history.Vector {
	for len(h) < l {
		h = append(h, history.Entry{})
	}
	return h
}

// padCodes extends h with silent (zero) codes to length l, in one
// zero-extend: a reslice and a clear, growing the buffer only when it is
// too small.
func padCodes(h []byte, l int) []byte {
	n := len(h)
	if l <= n {
		return h
	}
	h = slices.Grow(h, l-n)[:l]
	clear(h[n:])
	return h
}

// entryCode returns the code of the entry of a node that perceived cnt
// transmitting neighbours in a coded run, whose one message is the only
// one that can reach it.
func entryCode(cnt int) byte {
	return byte(min(cnt, 2)) // CodeSilence, CodeMessage, CodeNoise
}

// buildResult assembles the reusable Result from the final node states:
// Codes for a coded run, Histories for a vector run, the other one empty.
func (s *Simulator) buildResult(rounds int, trace *Trace, fs FaultStats) *Result {
	n := len(s.states)
	res := &s.res
	if s.coder != nil {
		res.Codes = arena.Grow(res.Codes, n)
		res.Histories = res.Histories[:0]
	} else {
		res.Histories = arena.Grow(res.Histories, n)
		res.Codes = res.Codes[:0]
	}
	res.WakeRound = arena.Grow(res.WakeRound, n)
	res.Forced = arena.Grow(res.Forced, n)
	res.DoneLocal = arena.Grow(res.DoneLocal, n)
	res.GlobalRounds = rounds
	res.Trace = trace
	res.Faults = fs
	for v := range s.states {
		if s.coder != nil {
			res.Codes[v] = s.states[v].codes
		} else {
			res.Histories[v] = s.states[v].hist
		}
		res.WakeRound[v] = s.states[v].wakeRound
		res.Forced[v] = s.states[v].forced
		res.DoneLocal[v] = s.states[v].doneLocal
	}
	return res
}

// materialize decodes every node's codes into the node's history vector
// buffer and points the result's Histories at them.
func (s *Simulator) materialize(res *Result) {
	res.Histories = arena.Grow(res.Histories, len(s.states))
	for v := range s.states {
		st := &s.states[v]
		st.hist = history.AppendDecoded(st.hist[:0], st.codes, s.msg)
		res.Histories[v] = st.hist
	}
}
