package radio

import (
	"fmt"
	"slices"

	"anonradio/internal/arena"
	"anonradio/internal/config"
	"anonradio/internal/drip"
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
//     listen rounds. Only the nodes on the round's due list consult their
//     protocol.
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
//   - A CodedProtocol's histories are recorded as one byte code per entry,
//     in one matrix: row v holds node v's codes, and its entry for global
//     round r sits at base[v]+r. The matrix is cleared when the run starts,
//     so silence, the zero code, is never written: a heard entry, a wake-up
//     entry and each neighbour of a lone delivery cost one byte store, and
//     a termination writes nothing. Rows start short and double whenever a
//     run outgrows them; they keep their length for every later run, Reset
//     included, and a run uses no more of them than its round limit.
//   - Every other protocol's histories are history.Entry vectors, whose
//     silence (the zero Entry) is written lazily: a node's skipped silent
//     entries are filled in before it consults its protocol, before it
//     records a heard entry, and when a run is cut off by its round limit.
//   - The delivery loops read a node's life cycle (asleep, running,
//     terminated) from one byte per node.
//   - Spontaneous wake-ups come from a tag-ordered node list; forced ones
//     from the lone delivery or the dirty list.
//   - Neighbourhoods are read in place from the configuration graph's
//     compressed sparse rows, so rebinding the simulator to another
//     configuration (Reset) copies no adjacency.
//   - Under a fault plan any node may perceive noise in any round, so one
//     dense pass per round perceives for every sleeping node and every
//     listener, making exactly the perception calls the model prescribes.
//
// The Result returned by Run points into the simulator's reusable buffers:
// it is valid until the next Run on the same Simulator. Callers that need
// to retain results across runs must copy them (or use the one-shot
// Sequential engine, which dedicates a fresh Simulator per call).
//
// A Simulator is not safe for concurrent use; give each goroutine its own.
type Simulator struct {
	cfg *config.Config
	// off and nbr are cfg's graph's compressed sparse rows, read in place:
	// node v's neighbours are nbr[off[v]:off[v+1]].
	off, nbr []int32

	states       []nodeState
	life         []lifeStage
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
	// byTag lists the nodes in ascending wake-up tag order; tagCount is
	// the counting pass's scratch.
	byTag    []int32
	tagCount []int32
	// sched is the running protocol's ListenScheduler; nil when it has none
	// or the nodes run different protocols.
	sched ListenScheduler
	// coder is the running protocol when it is a CodedProtocol, and msg its
	// coded message; coder is nil in a run that records vectors.
	coder     CodedProtocol
	msg       string
	maxRounds int
	// The code matrix of a coded run: row v is codes[v*stride:(v+1)*stride],
	// and node v's entry for global round r is codes[base[v]+r], where
	// base[v] = v*stride - wakeRound(v). Only rows of awake nodes have a
	// base. Rows hold every local round before global round stride, so the
	// round loop grows them before round stride starts. rows is the longest
	// stride any run has grown them to; a run starts at that length, capped
	// at its round limit, so rows grown once are never grown again.
	codes  []byte
	stride int
	rows   int
	base   []int

	res Result
}

// lifeStage is where a node is in its life cycle; the delivery loops read
// it for every neighbour they reach.
type lifeStage uint8

const (
	asleep lifeStage = iota
	running
	terminated
)

// nodeState is the simulator's per-node bookkeeping. In a vector run a
// running node's history may lag behind its local round: the missing tail
// is silence, written lazily. A coded run records into the code matrix
// instead; Run materializes hist from the codes at the end of a coded run.
type nodeState struct {
	wakeRound int
	forced    bool
	doneLocal int
	hist      history.Vector
}

// rowStart is the row length a simulator's first coded run starts with;
// its rows double whenever a run outgrows them.
const rowStart = 64

// NewSimulator validates cfg and builds a reusable simulator for it.
func NewSimulator(cfg *config.Config) (*Simulator, error) {
	if cfg == nil {
		return nil, fmt.Errorf("radio: nil configuration")
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("radio: invalid configuration: %w", err)
	}
	s := &Simulator{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebinds the simulator to a different configuration, reusing every
// internal buffer the new configuration fits in: the per-node state
// (including history backing arrays), the code matrix and its row length,
// the medium scratch, the agenda and the result buffers are all retained,
// so re-binding a warm simulator across a stream of configurations no
// larger than the largest it has served allocates nothing. A rebind costs
// O(n): the adjacency is read in place from the configuration's graph, and
// the tag order is a counting pass when the span is at most a few times n
// (a sort otherwise). That makes it cheap enough to run per election: the
// election registry gives each shard worker one simulator and rebinds it
// to whichever key the worker elects, and the build arena rebinds one per
// admission.
//
// Any Result returned by a previous Run is invalidated. The simulator reads
// cfg's graph until the next Reset, so the graph must not change meanwhile.
//
// Reset performs only allocation-free shape checks; unlike NewSimulator it
// does not re-run the connectivity traversal of Config.Validate, so the
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
	lo, hi := cfg.Tag(0), cfg.Tag(0)
	for v := 0; v < n; v++ {
		t := cfg.Tag(v)
		if t < 0 {
			return fmt.Errorf("radio: node %d has negative tag %d", v, t)
		}
		lo, hi = min(lo, t), max(hi, t)
	}
	// The round loop relies on the medium being all-clean. Entries an
	// aborted run left dirty are cleaned while the slices still span them;
	// every other entry of the backing arrays is already zero.
	s.cleanMedium()
	s.cfg = cfg
	s.off, s.nbr = cfg.Graph().CSR()
	s.states = growStates(s.states, n)
	s.life = arena.Grow(s.life, n)
	s.base = arena.Grow(s.base, n)
	s.protos = arena.Grow(s.protos, n)
	s.actions = arena.Grow(s.actions, n)
	s.transmitting = arena.Grow(s.transmitting, n)
	s.counts = arena.Grow(s.counts, n)
	s.single = arena.Grow(s.single, n)
	s.touched = arena.Grow(s.touched, n)[:0]
	s.next = arena.Grow(s.next, n)[:0]
	s.link = arena.Grow(s.link, n)
	s.due = arena.Grow(s.due, n)[:0]
	s.orderByTag(lo, hi)
	return nil
}

// cleanMedium zeroes the medium entries on the touched list, which a run
// that returned mid-round may have left dirty.
func (s *Simulator) cleanMedium() {
	for _, w := range s.touched {
		s.counts[w] = 0
		s.single[w] = ""
	}
	s.touched = s.touched[:0]
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

// orderByTag fills byTag with the bound configuration's nodes in ascending
// wake-up tag order; lo and hi are its smallest and largest tag. A span of
// at most countingSpan times n is ordered by a counting pass over the tags,
// ties by node index, and a larger one by a sort.
func (s *Simulator) orderByTag(lo, hi int) {
	cfg := s.cfg
	n := cfg.N()
	order := arena.Grow(s.byTag, n)
	s.byTag = order
	if hi-lo > countingSpan*n {
		for v := range order {
			order[v] = int32(v)
		}
		slices.SortFunc(order, func(a, b int32) int { return cfg.Tag(int(a)) - cfg.Tag(int(b)) })
		return
	}
	// start[t-lo+1] counts the nodes with tag t; prefix-summed, start[t-lo]
	// is where tag t's run of order begins, and the fill advances it.
	start := arena.Grow(s.tagCount, hi-lo+2)
	s.tagCount = start
	clear(start)
	for v := 0; v < n; v++ {
		start[cfg.Tag(v)-lo+1]++
	}
	for t := 1; t < len(start); t++ {
		start[t] += start[t-1]
	}
	for v := 0; v < n; v++ {
		t := cfg.Tag(v) - lo
		order[start[t]] = int32(v)
		start[t]++
	}
}

// countingSpan bounds, per node, the span orderByTag orders by counting: up
// to it the counting array costs no more than a few passes over the nodes.
const countingSpan = 4

// Config returns the configuration the simulator is bound to.
func (s *Simulator) Config() *config.Config { return s.cfg }

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
		*st = nodeState{wakeRound: -1, doneLocal: -1, hist: st.hist[:0]}
	}
	clear(s.life)

	var trace *Trace
	if opts.RecordTrace {
		trace = &Trace{}
	}

	s.maxRounds = opts.maxRounds()
	if s.coder != nil {
		// Rows keep the length earlier runs grew them to, whatever
		// configuration those runs had, never past this run's round limit,
		// and double when the run outgrows them, so repeated runs (a
		// worker's elections) size them once. Only this run's rows are
		// cleared.
		s.stride = min(max(s.rows, rowStart), s.maxRounds)
		s.codes = arena.Grow(s.codes, n*s.stride)
		clear(s.codes)
	}
	remaining := n // nodes that have not yet terminated
	lastActive := 0
	tagged := 0 // prefix of byTag whose tag round has been processed
	// A run that returned mid-round (round limit, invalid protocol action)
	// may have left medium entries on the touched list, transmit flags set
	// and consults pending on the agenda; restore the all-clean state the
	// round loop relies on.
	s.cleanMedium()
	clear(s.transmitting)
	s.next = s.next[:0]
	s.heads = s.heads[:0]

	for round := 0; remaining > 0; round++ {
		if round >= s.maxRounds {
			if s.coder == nil {
				s.padRunning(round)
			}
			return s.buildResult(round, trace, fs), fmt.Errorf("%w: %d rounds simulated, %d nodes still running", ErrRoundLimit, round, remaining)
		}
		if s.coder != nil && round >= s.stride {
			s.growRows(round)
		}

		if depth != nil {
			downNow += fp.applyOutages(round, depth)
			fs.OutageRounds += int64(downNow)
		}

		var rec *RoundRecord
		if trace != nil {
			rec = &RoundRecord{Global: round, Heard: make(map[int]history.Entry)}
		}

		// Step 1: the nodes due this round consult their protocol. Every
		// other awake node listens this round.
		due := s.next
		if round < len(s.heads) {
			for v := s.heads[round]; v >= 0; v = s.link[v] {
				due = append(due, v)
			}
		}
		s.next, s.due = s.due[:0], due
		if len(due) > 0 {
			s.actDue(round, due)
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
				s.life[v] = terminated
				st.doneLocal = round - st.wakeRound
				if s.coder == nil {
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
			for _, w := range s.nbr[s.off[v]:s.off[v+1]] {
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
			// message; the transmitter set lastActive in step 1. A coded run
			// records it with one byte store per running neighbour.
			msg := s.actions[tx[0]].Msg
			nbrs := s.nbr[s.off[tx[0]]:s.off[tx[0]+1]]
			if s.coder != nil {
				// The slice headers are loaded once: a wake-up writes into
				// these arrays but never replaces them.
				life, base, codes := s.life, s.base, s.codes
				for _, w := range nbrs {
					switch life[w] {
					case running:
						codes[base[w]+round] = history.CodeMessage
					case asleep:
						s.wake(int(w), round, 1, msg, rec)
					}
				}
				if rec != nil {
					// A pass of its own keeps the trace test out of the
					// store loop. Every neighbour running now heard the
					// message or woke with it; both entries read the same.
					for _, w := range nbrs {
						if s.life[w] == running {
							rec.Heard[int(w)] = listenEntry(1, msg)
						}
					}
				}
			} else {
				for _, w := range nbrs {
					switch s.life[w] {
					case running:
						s.hear(int(w), round, 1, msg, rec)
					case asleep:
						s.wake(int(w), round, 1, msg, rec)
					}
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
				cnt := int(s.counts[w])
				switch {
				case s.life[w] == asleep:
					if cnt == 1 {
						s.wake(int(w), round, cnt, s.single[w], rec)
						lastActive = round
					}
				case s.life[w] == running && !s.transmitting[w]:
					s.hear(int(w), round, cnt, s.single[w], rec)
					lastActive = round
				}
			}
			for ; tagged < n; tagged++ {
				v := int(s.byTag[tagged])
				if s.cfg.Tag(v) != round {
					break
				}
				if s.life[v] == asleep {
					s.wake(v, round, int(s.counts[v]), s.single[v], rec)
					lastActive = round
				}
			}
		} else {
			// Faulted medium: noise may reach any node, so one dense pass
			// perceives for every sleeping node and every listener.
			for v := 0; v < n; v++ {
				life := s.life[v]
				if life == terminated || (life == running && s.transmitting[v]) {
					continue
				}
				cnt, msg := fp.perceive(int(s.counts[v]), s.single[v], round, v, depth, &fs)
				switch {
				case life == asleep:
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

// actDue performs the consult step for the nodes of due: a coded node's
// protocol reads the prefix of its row before the round, a vector node's
// skipped silent entries are written first; then the node's action for the
// round is recorded.
func (s *Simulator) actDue(round int, due []int32) {
	if s.coder != nil {
		for _, v := range due {
			row, end := int(v)*s.stride, s.base[v]+round
			s.actions[v] = s.coder.ActCodes(s.codes[row:end:end])
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
	s.life[v] = running
	st.wakeRound = round
	st.forced = cnt == 1
	if s.coder != nil {
		s.base[v] = v*s.stride - round
		s.codes[v*s.stride] = entryCode(cnt)
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
	if s.coder != nil {
		s.codes[s.base[v]+round] = entryCode(cnt)
	} else {
		st := &s.states[v]
		st.hist = append(padSilence(st.hist, round-st.wakeRound), listenEntry(cnt, msg))
	}
	if rec != nil {
		rec.Heard[v] = listenEntry(cnt, msg)
	}
}

// padRunning writes the skipped silent entries of every running node's
// history vector up to the given global round, exclusive: a vector run cut
// off there reports every round a node was awake for.
func (s *Simulator) padRunning(round int) {
	for v := range s.states {
		if s.life[v] == running {
			st := &s.states[v]
			st.hist = padSilence(st.hist, round-st.wakeRound)
		}
	}
}

// growRows lengthens the code matrix's rows to hold global round round: at
// least doubled, never past the round limit. The rows move inside the
// matrix's capacity when it fits them, last row first, since each row's
// new place starts at or after its old one.
func (s *Simulator) growRows(round int) {
	n := len(s.states)
	old := s.stride
	s.stride = min(max(round+1, 2*old), s.maxRounds)
	s.rows = max(s.rows, s.stride)
	if n*s.stride > cap(s.codes) {
		grown := make([]byte, n*s.stride)
		for v := 0; v < n; v++ {
			copy(grown[v*s.stride:], s.codes[v*old:(v+1)*old])
		}
		s.codes = grown
	} else {
		s.codes = s.codes[:n*s.stride]
		for v := n - 1; v > 0; v-- {
			copy(s.codes[v*s.stride:], s.codes[v*old:(v+1)*old])
			clear(s.codes[v*s.stride+old : (v+1)*s.stride])
		}
		clear(s.codes[old:s.stride])
	}
	for v := range s.base {
		if s.life[v] != asleep {
			s.base[v] = v*s.stride - s.states[v].wakeRound
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

// entryCode returns the code of the entry of a node that perceived cnt
// transmitting neighbours in a coded run, whose one message is the only
// one that can reach it.
func entryCode(cnt int) byte {
	return byte(min(cnt, 2)) // CodeSilence, CodeMessage, CodeNoise
}

// buildResult assembles the reusable Result from the final node states:
// Codes for a coded run, Histories for a vector run, the other one empty.
// A node's codes are its row's prefix up to its termination entry, or up to
// the given round when the round limit cut the node off; the slice is
// capped there, so appending to one row never writes into the next.
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
			st := &s.states[v]
			row, l := v*s.stride, 0
			switch s.life[v] {
			case running:
				l = rounds - st.wakeRound
			case terminated:
				l = st.doneLocal + 1
			}
			res.Codes[v] = s.codes[row : row+l : row+l]
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
		st.hist = history.AppendDecoded(st.hist[:0], res.Codes[v], s.msg)
		res.Histories[v] = st.hist
	}
}
