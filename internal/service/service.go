// Package service implements the sharded election service: a long-lived
// registry of dedicated leader-election algorithms served from worker-owned
// shards, with admissions built off the serve path by a bounded builder
// pool.
//
// The Registry hashes configuration keys onto N shards. Each shard is owned
// by exactly one worker goroutine that holds everything the shard needs —
// its configurations (each an immutable *election.Dedicated: protocol and
// decision target), one radio.Simulator and one ElectionOutcome that the
// worker runs every election it executes on, and its own statistics
// counters. A key keeps no simulator: the worker rebinds its one simulator
// to the key it elects (election.Dedicated.ElectOn; a rebind is O(n) and
// allocation-free), so the worker's buffers are sized by the largest key
// it has served, not summed over its keys. Every mutation of a shard
// (install, eviction, snapshot, stats) executes *on* the owning worker via
// its request queue, so shard state shares no memory across shards, and the
// steady-state serve path performs zero heap allocations: requests and
// responses travel by value through buffered channels, reply channels are
// drawn from a pool, and the election itself runs on the zero-alloc
// ElectOn path.
//
// Elections — the read-only operation — additionally participate in work
// stealing whenever there are two or more shards: every shard queues its
// elections on a dedicated channel, and a worker whose own queues are empty
// serves a queued election from the most loaded sibling instead of idling,
// on its own simulator. Placement is unchanged (FNV still names every key's
// home shard, and mutations never migrate, so entry ownership stays with
// one worker); a stolen election resolves its entry through the home
// shard's copy-on-write entry view. Elections hold the entry's read lock,
// installs and evictions its write lock, so two elections of one hot key
// run at once on two workers while an algorithm is never swapped or
// recycled under a running election, and outcomes are bit-identical to
// elections on the home worker. The effect is that a handful of hot keys
// hashed onto one shard no longer pin one core while the rest idle —
// exactly the skew a fleet router concentrates.
//
// Admissions are pipelined, not served inline: Register, RegisterCompiled
// and their Async variants enqueue onto a bounded admission queue drained
// by a pool of builder goroutines. A builder classifies and compiles the
// configuration (or validates its compiled artifact) on its own reusable
// build arena — outside every shard worker — and hands the finished
// algorithm to the owning shard as a cheap O(1) install request. Elections
// on a shard therefore never wait behind a build. When the queue is full,
// admissions fail fast with ErrAdmissionBusy (backpressure; the HTTP layer
// maps it to 429), and every admission's progress is pollable through
// AdmissionStatus.
//
// The design trades large-result access for serve throughput: a served
// Outcome carries the elected leader and the round count by value, not the
// per-node histories (which live in worker-owned buffers and are
// overwritten by the next election on the same configuration). Callers that
// want to inspect full executions should build a Dedicated directly.
//
// A registry can be persisted and revived: Snapshot writes every admitted
// configuration as a binary compiled-artifact frame plus a manifest of
// keys, and Restore re-admits the set through election.Load, so a cold
// restart loads artifacts instead of re-running the classifier. Restore and
// journal replay also read the JSON artifacts and records older releases
// wrote, and the phase tables and digests their artifacts carry.
// Package internal/server exposes a Registry over HTTP/JSON, and
// cmd/anonradiod is the deployable daemon around both.
package service

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/fnv"
	"anonradio/internal/radio"
	"anonradio/internal/wal"
)

// ErrClosed is returned by operations on a closed registry.
var ErrClosed = errors.New("service: registry is closed")

// ErrUnknownKey is returned (wrapped, naming the key) by elections on a key
// with no registered configuration.
var ErrUnknownKey = errors.New("service: unknown key")

// Options configure a Registry.
type Options struct {
	// Shards is the number of worker-owned shards; <= 0 selects GOMAXPROCS.
	Shards int
	// QueueDepth is the per-shard request buffer; <= 0 selects 64. A deeper
	// queue lets batch submitters run further ahead of a busy shard.
	QueueDepth int
	// Builders is the number of builder-pool goroutines that classify,
	// compile and validate admissions off the serve path; <= 0 selects
	// GOMAXPROCS.
	Builders int
	// AdmissionQueue bounds how many admissions may be queued ahead of the
	// builder pool; <= 0 selects 256. When the queue is full, registrations
	// fail fast with ErrAdmissionBusy instead of piling up behind slow
	// builds.
	AdmissionQueue int
	// BuildHook, when non-nil, is invoked with the key being admitted, on
	// the pool builder performing the build, immediately before the build
	// or artifact validation starts. It exists for tests and
	// instrumentation — e.g. deterministically holding a build open to
	// observe backpressure.
	// Leave nil in production; a hook that never returns wedges its builder
	// and deadlocks Close.
	BuildHook func(key string)
	// WAL enables the durable admission journal when WAL.Dir is non-empty:
	// every acknowledged admission and eviction is appended to a
	// write-ahead log and replayed at the next boot (see Open and
	// durability.go). Prefer Open over New for durable registries — Open
	// surfaces journal errors and the recovery report; New panics if the
	// journal cannot be opened.
	WAL WALOptions
	// Fault layers a radio-level fault plan under every served election:
	// elections run with radio.Options{Fault: Fault}, so the registry serves
	// the protocol over a seeded lossy medium instead of the paper's clean
	// one. Faulted elections that elect the wrong leader (or none) fail
	// verification and count as election failures in Stats — robustness is
	// observable through the serving stack. The plan is deterministic per
	// key: repeated elections on one configuration replay identical faults.
	// nil serves the clean medium at unchanged cost.
	Fault *radio.FaultPlan
}

// Outcome is the value-typed result of one served election. It aliases no
// worker-owned memory, so it stays valid indefinitely and travels through
// channels without allocating.
type Outcome struct {
	// Key is the configuration key the election ran for.
	Key string
	// Index is the position of the key in the ElectBatch submission (0 for a
	// single Elect).
	Index int
	// Leader is the elected node, or -1 when the election failed.
	Leader int
	// Rounds is the number of global rounds of the election.
	Rounds int
	// Err reports a per-key failure (unknown key, round-limit overrun, ...).
	Err error
}

// Elected reports whether the election succeeded.
func (o Outcome) Elected() bool { return o.Err == nil && o.Leader >= 0 }

// ShardStats is a snapshot of one shard's counters, served as a row of
// GET /v1/stats.
type ShardStats struct {
	// Shard is the shard index (-1 in a totals row).
	Shard int `json:"shard"`
	// Configs is the number of configurations currently registered.
	Configs int `json:"configs"`
	// Builds counts successful admissions (installs of built or loaded
	// algorithms).
	Builds int64 `json:"builds"`
	// Elections counts successfully served elections.
	Elections int64 `json:"elections"`
	// Failures counts failed operations (infeasible admissions, unknown
	// keys, failed elections).
	Failures int64 `json:"failures"`
	// Rounds accumulates the global rounds of all served elections.
	Rounds int64 `json:"rounds"`
	// Stolen counts elections this shard's worker executed on behalf of
	// other shards (this worker was the thief). Those elections are
	// counted in the home shard's Elections, not this one's.
	Stolen int64 `json:"stolen"`
	// StolenFrom counts this shard's elections that sibling workers
	// executed (this shard was the victim); they are still counted in this
	// shard's Elections and Rounds.
	StolenFrom int64 `json:"stolen_from"`
	// Queued is the instantaneous depth of the shard's queues (pending
	// elections plus pending mutations) when the snapshot was taken —
	// the direct observable for hot-shard skew.
	Queued int `json:"queued"`
}

// Totals folds per-shard snapshots into one aggregate (Shard is -1,
// Configs/Builds/... are sums).
func Totals(stats []ShardStats) ShardStats {
	total := ShardStats{Shard: -1}
	for _, s := range stats {
		total.Configs += s.Configs
		total.Builds += s.Builds
		total.Elections += s.Elections
		total.Failures += s.Failures
		total.Rounds += s.Rounds
		total.Stolen += s.Stolen
		total.StolenFrom += s.StolenFrom
		total.Queued += s.Queued
	}
	return total
}

type opKind uint8

const (
	opElect   opKind = iota
	opInstall        // O(1) hand-off of a pipeline-built algorithm to its shard
	opEvict
	opStats
	opSnapshot   // gather compiled artifacts (all entries, or request.key only)
	opFaultStats // gather per-key injected-fault counters
)

// request is one operation handed to a shard worker. It travels by value
// through the shard's buffered queue.
type request struct {
	op       opKind
	key      string
	index    int
	d        *election.Dedicated // opInstall: the pipeline-built algorithm
	buildErr error               // opInstall: the build failure to account
	reply    chan response
}

// response is the worker's answer, also by value.
type response struct {
	out     Outcome
	stats   ShardStats
	evicted bool
	entries []SnapshotEntry
	faults  []KeyFaultStats
}

// KeyFaultStats is the accumulated injected-fault account of one registered
// key: how many deliveries were dropped, spurious collisions perceived, and
// node-rounds spent in an outage window across every election served for the
// key since it was admitted. Counters survive same-key re-admissions (the
// entry is the unit of accounting) and reset on eviction. Only meaningful
// when the registry runs a fault plan (Options.Fault); see FaultKeyStats.
type KeyFaultStats struct {
	// Key is the registry key.
	Key string `json:"key"`
	// Elections counts the faulted elections the counters cover (successful
	// or not — a faulted election that fails verification still observed its
	// injected faults).
	Elections int64 `json:"elections"`
	// Drops counts deliveries lost to the drop rate.
	Drops int64 `json:"drops"`
	// Noise counts spurious collisions perceived.
	Noise int64 `json:"noise"`
	// OutageRounds counts node-rounds spent with the radio off.
	OutageRounds int64 `json:"outage_rounds"`
}

// entry is one registered configuration. Elections (which may run on a
// stealing sibling worker) hold mu's read side for the whole run, installs
// and evictions its write side, so an algorithm is never swapped, retired
// or rebuilt in place under a running election while elections of one key
// overlap. d == nil under the lock marks an evicted entry a thief may still
// reach through a stale view. The fault counters are atomics because
// overlapping elections add to them; a gather takes the write side to read
// a consistent row.
type entry struct {
	mu     sync.RWMutex
	d      *election.Dedicated
	faults faultCounters
}

// faultCounters is an entry's injected-fault account; see KeyFaultStats.
type faultCounters struct {
	elections, drops, noise, outageRounds atomic.Int64
}

// add accounts one faulted election.
func (c *faultCounters) add(f radio.FaultStats) {
	c.elections.Add(1)
	c.drops.Add(f.Drops)
	c.noise.Add(f.Noise)
	c.outageRounds.Add(f.OutageRounds)
}

// shard is the state owned by one worker goroutine. The entries map and
// stats are only ever touched by the owning worker; the atomics and the
// view are the shard's cross-worker surface for work stealing.
type shard struct {
	id       int
	requests chan request // mutations, stats, snapshots — home-worker only
	elects   chan request // queued elections — stealable by idle siblings
	entries  map[string]*entry
	stats    ShardStats // worker-only counters (Builds, admission Failures)

	// sim and out are the worker's election scratch: every election the
	// worker executes, for its own shard or stolen, runs on them. sim is
	// created by the worker's first election and rebound per election.
	sim *radio.Simulator
	out radio.ElectionOutcome

	stealing bool
	// view is a copy-on-write snapshot of entries for stealing siblings;
	// the owner republishes it on entry add/remove (not on same-key
	// replace, which swaps d under the entry's write lock and keeps the
	// pointer).
	view atomic.Pointer[map[string]*entry]
	// load is the election-queue depth hint (incremented by submitters,
	// decremented by whichever worker serves the op); siblings pick the
	// highest-load victim.
	load atomic.Int64
	// Serving counters, atomics because a thief updates its victim's.
	elections  atomic.Int64
	rounds     atomic.Int64
	electFails atomic.Int64
	stolen     atomic.Int64 // elections this worker ran for siblings
	stolenFrom atomic.Int64 // this shard's elections run by siblings
}

// Registry is the sharded election service. All methods, including Close,
// are safe for concurrent use.
type Registry struct {
	shards  []*shard
	replies sync.Pool      // chan response, cap 1 — single-request rendezvous
	batches sync.Pool      // chan response, batch-sized — ElectBatch gather
	workers sync.WaitGroup // shard workers

	// lifecycle serializes Close against every other public operation
	// without putting a lock on the serve path: bit 0 is the closed flag,
	// the remaining bits count in-flight operations (in units of
	// lifecycleOp). An operation enters with a CAS that increments the
	// count only while the closed bit is clear, so it observes either a
	// fully live or a fully closed registry — never a torn-down one (the
	// pre-PR-5 check-then-send raced with Close and could panic on a
	// closed request channel). Close sets the bit (turning every later
	// entry into a deterministic ErrClosed), waits for the count to drain,
	// and only then tears the pipeline down. This replaces the registry-
	// wide RWMutex whose read acquisition was the last shared cache-line
	// contention on the serve path at high core counts.
	lifecycle atomic.Int64
	// drained is closed by the release that drops the last in-flight
	// operation after Close set the closed bit.
	drained chan struct{}
	// closeDone is closed when Close finished the teardown; concurrent
	// Close calls wait on it so Close-returned implies fully closed.
	closeDone chan struct{}

	buildHook func(key string)
	fault     *radio.FaultPlan // immutable after construction; nil = clean medium

	// stealKick wakes blocked workers when an election queue grows beyond
	// one pending op; nil on a one-shard registry, which has no sibling to
	// steal (a nil channel never fires in the workers' select).
	stealKick chan struct{}

	// retired pools displaced and evicted algorithms for rebuild-in-place
	// admissions (election.RebuildInto): a builder re-admitting a key
	// reuses a retired algorithm's report, lists, phase table and decision
	// buffers instead of reallocating them. Only registry-built algorithms
	// enter the pool (see retire). The pool is bucketed by configuration
	// size class (bits.Len of N) so that several shapes churning at once
	// each hit a retiree of their own magnitude — a single-slot pool
	// ping-ponged between shapes and handed a 10-node rebuild the buffers
	// of a 200-node one (or vice versa), wasting either the memory or the
	// reuse.
	retired [retiredBuckets]sync.Pool
	// snapMu fences artifact gathering against rebuild-in-place: snapshots
	// compile artifacts that alias live algorithm memory and encode them on
	// the caller's goroutine, so Snapshot holds the write side across
	// gather+encode while builders hold the read side around RebuildInto.
	snapMu sync.RWMutex

	// Admission pipeline state (admission.go).
	admissions    chan admission
	builders      sync.WaitGroup
	builderCount  int
	admitMu       sync.Mutex
	admitted      map[string]*admissionRecord
	admSubmitted  atomic.Int64
	admCompleted  atomic.Int64
	admFailed     atomic.Int64
	admRejected   atomic.Int64
	admPending    atomic.Int64
	artifactLoads atomic.Int64 // admissions installed from an artifact
	rebuildHits   atomic.Int64 // builds that reused a retired algorithm's buffers

	// configCount caches the registered-configuration total so health
	// probes (Len) never enter a shard queue. Only shard workers update it.
	configCount atomic.Int64

	// Durability state (durability.go); wal is nil on a non-durable
	// registry and immutable once Open returns.
	wal                 *wal.Log
	walOpts             WALOptions
	walRecords          atomic.Int64 // journal records since the last checkpoint
	walAppendErrs       atomic.Int64
	checkpoints         atomic.Int64
	checkpointErrs      atomic.Int64
	lastCheckpointNanos atomic.Int64
	checkpointMu        sync.Mutex // one checkpoint at a time
	checkpointKick      chan struct{}
	checkpointStop      chan struct{}
	checkpointOnce      sync.Once
	checkpointWG        sync.WaitGroup
}

// New starts a registry with opts.Shards worker-owned shards and
// opts.Builders admission builders. The registry holds goroutines; release
// it with Close. When opts.WAL.Dir is set, New delegates to Open and
// panics if the journal cannot be opened — durable deployments should call
// Open directly to handle the error and read the recovery report.
func New(opts Options) *Registry {
	if opts.WAL.Dir != "" {
		r, _, err := Open(opts)
		if err != nil {
			panic(fmt.Sprintf("service: opening durable registry: %v", err))
		}
		return r
	}
	return newCore(opts)
}

// newCore starts the registry's shard workers and builder pool; durability
// (if any) is layered on by Open.
func newCore(opts Options) *Registry {
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	builders := opts.Builders
	if builders <= 0 {
		builders = runtime.GOMAXPROCS(0)
	}
	queue := opts.AdmissionQueue
	if queue <= 0 {
		queue = 256
	}
	r := &Registry{
		shards:       make([]*shard, shards),
		drained:      make(chan struct{}),
		closeDone:    make(chan struct{}),
		fault:        opts.Fault,
		buildHook:    opts.BuildHook,
		admissions:   make(chan admission, queue),
		builderCount: builders,
		admitted:     make(map[string]*admissionRecord),
	}
	r.replies.New = func() any { return make(chan response, 1) }
	stealing := shards > 1
	if stealing {
		r.stealKick = make(chan struct{}, shards)
	}
	// Fill the shard table completely before starting any worker: a
	// stealing worker scans every sibling's load hint.
	for i := range r.shards {
		sh := &shard{
			id:       i,
			requests: make(chan request, depth),
			elects:   make(chan request, depth),
			entries:  make(map[string]*entry),
			stealing: stealing,
		}
		sh.publishView()
		r.shards[i] = sh
	}
	for _, sh := range r.shards {
		r.workers.Add(1)
		go r.worker(sh)
	}
	for b := 0; b < builders; b++ {
		r.builders.Add(1)
		go r.builder()
	}
	return r
}

// Shards returns the number of shards.
func (r *Registry) Shards() int { return len(r.shards) }

// lifecycle word layout: bit 0 is the closed flag, the rest is the
// in-flight operation count in units of lifecycleOp.
const (
	lifecycleClosed int64 = 1
	lifecycleOp     int64 = 2
)

// acquire enters one public operation: it increments the in-flight count
// unless the registry is closed. On the warm path this is a single
// uncontended CAS — no lock, no writer queue.
func (r *Registry) acquire() bool {
	for {
		v := r.lifecycle.Load()
		if v&lifecycleClosed != 0 {
			return false
		}
		if r.lifecycle.CompareAndSwap(v, v+lifecycleOp) {
			return true
		}
	}
}

// release leaves one public operation. The release that drops the last
// in-flight operation after Close set the closed bit hands Close the
// all-drained signal; exactly one release can observe that state because
// the count is strictly decreasing once the bit is set.
func (r *Registry) release() {
	if r.lifecycle.Add(-lifecycleOp) == lifecycleClosed {
		close(r.drained)
	}
}

// isClosed reports whether Close has begun; operations that already hold an
// acquire slot keep running to completion regardless.
func (r *Registry) isClosed() bool {
	return r.lifecycle.Load()&lifecycleClosed != 0
}

// shardFor hashes the key (FNV-1a) onto its owning shard; a key always maps
// to the same shard, so per-key operations are totally ordered by the
// owning worker.
func (r *Registry) shardFor(key string) *shard {
	return r.shards[fnv.String64(key)%uint64(len(r.shards))]
}

// do executes one request on the shard and waits for the answer through a
// pooled rendezvous channel; the round trip is allocation-free once the
// pool is warm. Callers must hold a lifecycle acquire slot (or run inside
// the pipeline before Close's drain completes) so the shard worker cannot
// be torn down mid-request.
func (r *Registry) do(sh *shard, req request) response {
	reply := r.replies.Get().(chan response)
	req.reply = reply
	sh.requests <- req
	resp := <-reply
	r.replies.Put(reply)
	return resp
}

// sendElect queues one election on the shard's election channel, maintains
// the load hint, and — when the shard has more than one election pending —
// kicks an idle sibling so stealing starts without waiting for a poll.
// Callers must hold a lifecycle acquire slot, like do.
func (r *Registry) sendElect(sh *shard, req request) {
	sh.load.Add(1)
	sh.elects <- req
	if r.stealKick != nil && sh.load.Load() >= 2 {
		select {
		case r.stealKick <- struct{}{}:
		default: // a wake-up is already pending; one is enough
		}
	}
}

// Register classifies cfg, builds its dedicated algorithm on the builder
// pool, installs it on the owning shard, and returns once the admission
// completed. Re-registering a key replaces its configuration (and reuses
// its serving buffers). It returns election.ErrInfeasible (wrapped) when
// cfg admits no election algorithm, and ErrAdmissionBusy when the
// admission queue is full.
func (r *Registry) Register(key string, cfg *config.Config) error {
	if cfg == nil {
		return fmt.Errorf("service: nil configuration")
	}
	return r.admitSync(key, cfg, nil)
}

// RegisterCompiled admits a pre-compiled algorithm artifact for cfg under
// key: the builder pool loads it (election.Load compiles the phase table
// from the artifact's lists and checks the artifact against them and cfg)
// and installs it on the owning shard. Fleet key migration admits shipped
// artifacts through it too.
func (r *Registry) RegisterCompiled(key string, c *election.Compiled, cfg *config.Config) error {
	if c == nil || cfg == nil {
		return fmt.Errorf("service: nil compiled algorithm or configuration")
	}
	return r.admitSync(key, cfg, c)
}

// admitSync runs one admission through the builder pipeline to completion.
func (r *Registry) admitSync(key string, cfg *config.Config, c *election.Compiled) error {
	if !r.acquire() {
		return ErrClosed
	}
	defer r.release()
	reply := r.replies.Get().(chan response)
	if err := r.enqueue(admission{key: key, cfg: cfg, compiled: c, reply: reply}); err != nil {
		r.replies.Put(reply)
		return err
	}
	resp := <-reply
	r.replies.Put(reply)
	return resp.out.Err
}

// Evict removes the configuration registered under key and reports whether
// it was present. A closed registry evicts nothing and returns ErrClosed:
// the key may still be registered (and journaled), so "absent" would be a
// wrong answer.
// Evicting a key also drops its terminal admission record (an in-flight
// re-admission keeps its); eviction is the end of the key's lifecycle, and
// the status map must not grow with historical keys.
func (r *Registry) Evict(key string) (bool, error) {
	if !r.acquire() {
		return false, ErrClosed
	}
	defer r.release()
	resp := r.do(r.shardFor(key), request{op: opEvict, key: key})
	if resp.evicted {
		r.admitMu.Lock()
		if rec := r.admitted[key]; rec != nil && rec.state.Terminal() {
			delete(r.admitted, key)
		}
		r.admitMu.Unlock()
		if r.wal != nil {
			// Journal the eviction on the caller's goroutine — after the
			// shard applied it (so a record in a frozen checkpoint segment
			// always describes an applied mutation) and before the caller
			// learns of it. Append failures only surface in WALStats: the
			// eviction already happened.
			_ = r.walAppendEvict(key)
		}
	}
	return resp.evicted, nil
}

// Elect serves one election for the configuration registered under key.
// This is the steady-state path: once the registry is warm it performs zero
// heap allocations end to end (pooled rendezvous channel, value-typed
// request/response, zero-alloc ElectOn on the worker's simulator), entering
// the lifecycle with one uncontended CAS instead of an RWMutex read, and it
// never waits behind an admission — builds run on the builder pool, not
// the shard.
func (r *Registry) Elect(key string) (Outcome, error) {
	if !r.acquire() {
		return Outcome{Key: key, Leader: -1, Err: ErrClosed}, ErrClosed
	}
	defer r.release()
	reply := r.replies.Get().(chan response)
	r.sendElect(r.shardFor(key), request{op: opElect, key: key, reply: reply})
	resp := <-reply
	r.replies.Put(reply)
	return resp.out, resp.out.Err
}

// ElectBatch serves one election per key, writing the outcome for keys[i]
// into slot i of the returned slice (outs is reused when it has capacity;
// pass nil to allocate). Requests fan out to their owning shards up front
// and execute concurrently across shards; the returned error is the first
// per-key error in submission order (inspect the outcomes for the rest).
func (r *Registry) ElectBatch(keys []string, outs []Outcome) ([]Outcome, error) {
	if cap(outs) < len(keys) {
		outs = make([]Outcome, len(keys))
	} else {
		outs = outs[:len(keys)]
	}
	if !r.acquire() {
		// Fill every slot explicitly: reused slices would otherwise carry
		// stale outcomes from a previous batch (and fresh ones a plausible
		// zero value), both of which read as successful elections.
		for i, key := range keys {
			outs[i] = Outcome{Key: key, Index: i, Leader: -1, Err: ErrClosed}
		}
		return outs, ErrClosed
	}
	defer r.release()
	if len(keys) == 0 {
		return outs, nil
	}
	reply := r.batchReply(len(keys))
	for i, key := range keys {
		r.sendElect(r.shardFor(key), request{op: opElect, key: key, index: i, reply: reply})
	}
	for range keys {
		resp := <-reply
		outs[resp.out.Index] = resp.out
	}
	r.batches.Put(reply)
	for i := range outs {
		if outs[i].Err != nil {
			return outs, outs[i].Err
		}
	}
	return outs, nil
}

// batchReply returns a pooled gather channel with room for n responses, so
// workers never block on the reply side and a steady batch workload reuses
// one channel. A pooled channel that is too small is dropped for a larger
// one.
func (r *Registry) batchReply(n int) chan response {
	if ch, ok := r.batches.Get().(chan response); ok && cap(ch) >= n {
		return ch
	}
	return make(chan response, n)
}

// Stats snapshots every shard's counters (one synchronous request per
// shard, so each snapshot is internally consistent). On a closed registry
// it returns ErrClosed rather than all-zero rows that would read as a
// healthy empty server.
func (r *Registry) Stats() ([]ShardStats, error) {
	if !r.acquire() {
		return nil, ErrClosed
	}
	defer r.release()
	stats := make([]ShardStats, len(r.shards))
	for i, sh := range r.shards {
		stats[i] = r.do(sh, request{op: opStats}).stats
	}
	return stats, nil
}

// FaultKeyStats gathers the accumulated injected-fault counters of every
// registered key, in sorted key order. On a registry without a fault plan it
// returns (nil, nil) — the counters exist only on the faulted path — and on
// a closed one ErrClosed. Each shard is visited with one synchronous request
// on its worker, so each shard's rows are internally consistent.
func (r *Registry) FaultKeyStats() ([]KeyFaultStats, error) {
	if r.fault == nil {
		return nil, nil
	}
	if !r.acquire() {
		return nil, ErrClosed
	}
	defer r.release()
	var stats []KeyFaultStats
	for _, sh := range r.shards {
		stats = append(stats, r.do(sh, request{op: opFaultStats}).faults...)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Key < stats[j].Key })
	return stats, nil
}

// faultStats snapshots every entry's fault counters; it runs on the owning
// worker, taking each entry's write lock so a concurrent (possibly stolen)
// election never tears a row.
func (sh *shard) faultStats() []KeyFaultStats {
	stats := make([]KeyFaultStats, 0, len(sh.entries))
	for key, e := range sh.entries {
		e.mu.Lock()
		stats = append(stats, KeyFaultStats{
			Key:          key,
			Elections:    e.faults.elections.Load(),
			Drops:        e.faults.drops.Load(),
			Noise:        e.faults.noise.Load(),
			OutageRounds: e.faults.outageRounds.Load(),
		})
		e.mu.Unlock()
	}
	return stats
}

// Len returns the number of registered configurations across all shards.
// It reads a cached counter maintained by the shard workers — it never
// enters a shard queue, so liveness probes stay responsive no matter how
// busy the shards are. After Close it keeps reporting the final count.
func (r *Registry) Len() int {
	return int(r.configCount.Load())
}

// Close drains and stops the builder pool and the shard workers (and, on a
// durable registry, the checkpointer and the journal — every acknowledged
// record is flushed and fsynced). It is safe to call concurrently with
// other registry methods: operations that began before Close complete
// normally, later ones return ErrClosed (or report false/zero for Evict
// and Len). Calling it twice is safe.
func (r *Registry) Close() {
	// Stop the checkpointer before setting the closed bit: a checkpoint in
	// flight holds an acquire slot (through Snapshot) and would deadlock
	// the drain while it waits to be stopped.
	if r.checkpointStop != nil {
		r.checkpointOnce.Do(func() { close(r.checkpointStop) })
		r.checkpointWG.Wait()
	}
	// Elect the closer: exactly one caller flips the closed bit; the rest
	// wait for the winner's teardown to finish so Close-returned always
	// means fully closed.
	for {
		v := r.lifecycle.Load()
		if v&lifecycleClosed != 0 {
			<-r.closeDone
			return
		}
		if !r.lifecycle.CompareAndSwap(v, v|lifecycleClosed) {
			continue
		}
		if v != 0 {
			// Operations were in flight when the bit went up; the last
			// release signals the drain. Synchronous admissions hold their
			// slot while waiting on a builder, and the builders stay up
			// until after this wait, so every waiter is answered.
			<-r.drained
		}
		break
	}
	// No public operation is in flight (the count drained) and none can
	// start (the closed bit is set), so the pipeline tears down cleanly:
	// first the builders (which may still be installing onto live shards),
	// then the shard workers.
	close(r.admissions)
	r.builders.Wait()
	for _, sh := range r.shards {
		// Election queues are empty (every queued election had a waiter
		// counted by the lifecycle drain), so closing both channels only
		// releases blocked workers.
		close(sh.requests)
		close(sh.elects)
	}
	r.workers.Wait()
	if r.wal != nil {
		// The builders are drained, so every acknowledged record is
		// already appended; this flushes and fsyncs the tail (SyncOff's
		// process buffer included).
		_ = r.wal.Close()
	}
	close(r.closeDone)
}

// worker owns one shard: it is the only goroutine that ever mutates the
// shard's entries and worker-only counters. The loop drains the
// shard's own queues first (mutations before elections, both without
// blocking), then — when idle — serves a queued election from the most
// loaded sibling, and only then blocks. A nil stealKick (one shard, no
// sibling) never fires, so the lone worker blocks on its own queues.
func (r *Registry) worker(sh *shard) {
	defer r.workers.Done()
	requests, elects := sh.requests, sh.elects
	for requests != nil || elects != nil {
		select {
		case req, ok := <-requests:
			if !ok {
				requests = nil
				continue
			}
			r.serve(sh, req)
			continue
		default:
		}
		select {
		case req, ok := <-elects:
			if !ok {
				elects = nil
				continue
			}
			r.runElect(sh, req, nil)
			continue
		default:
		}
		if sh.stealing && r.steal(sh) {
			continue
		}
		select {
		case req, ok := <-requests:
			if !ok {
				requests = nil
				continue
			}
			r.serve(sh, req)
		case req, ok := <-elects:
			if !ok {
				elects = nil
				continue
			}
			r.runElect(sh, req, nil)
		case <-r.stealKick:
			// A sibling's election queue grew; loop around and steal.
		}
	}
}

// serve executes one mutation-side request on the owning worker.
func (r *Registry) serve(sh *shard, req request) {
	var resp response
	switch req.op {
	case opInstall:
		resp.out = Outcome{Key: req.key, Index: req.index, Leader: -1}
		if req.buildErr != nil {
			sh.stats.Failures++
			resp.out.Err = req.buildErr
		} else {
			sh.stats.Builds++
			r.retire(sh.install(req.key, req.d, &r.configCount))
		}
	case opEvict:
		if e, ok := sh.entries[req.key]; ok {
			// Tombstone under the entry's write lock so a thief holding a
			// stale view observes the eviction, then drop the entry and
			// publish the new view.
			e.mu.Lock()
			d := e.d
			e.d = nil
			e.mu.Unlock()
			delete(sh.entries, req.key)
			sh.publishView()
			r.configCount.Add(-1)
			r.retire(d)
			resp.evicted = true
		}
	case opStats:
		resp.stats = sh.stats
		resp.stats.Shard = sh.id
		resp.stats.Configs = len(sh.entries)
		resp.stats.Elections = sh.elections.Load()
		resp.stats.Rounds = sh.rounds.Load()
		resp.stats.Failures += sh.electFails.Load()
		resp.stats.Stolen = sh.stolen.Load()
		resp.stats.StolenFrom = sh.stolenFrom.Load()
		resp.stats.Queued = len(sh.requests) + len(sh.elects)
	case opSnapshot:
		if req.key != "" {
			resp.entries = sh.snapshotKey(req.key)
		} else {
			resp.entries = sh.snapshot()
		}
	case opFaultStats:
		resp.faults = sh.faultStats()
	}
	req.reply <- resp
}

// steal serves one queued election from the most loaded sibling. The victim
// needs at least two pending elections: a lone queued op belongs to its home
// worker (which is at most one dequeue away from it), and leaving it there
// preserves strict home-shard affinity for sequential clients.
func (r *Registry) steal(thief *shard) bool {
	var victim *shard
	best := int64(1)
	for _, sh := range r.shards {
		if sh == thief {
			continue
		}
		if l := sh.load.Load(); l > best {
			victim, best = sh, l
		}
	}
	if victim == nil {
		return false
	}
	select {
	case req, ok := <-victim.elects:
		if !ok {
			return false
		}
		r.runElect(victim, req, thief)
		return true
	default:
		return false
	}
}

// runElect executes one queued election for its home shard. thief is non-nil
// when a sibling worker stole the op, in which case the entry resolves
// through the home shard's copy-on-write view instead of the worker-owned
// map, and the election runs on the thief's simulator. Outcomes and
// counters are identical either way: an election only reads its algorithm,
// and every serving counter stays attributed to the home shard.
func (r *Registry) runElect(home *shard, req request, thief *shard) {
	home.load.Add(-1)
	w := home
	if thief != nil {
		w = thief
		thief.stolen.Add(1)
		home.stolenFrom.Add(1)
	}
	out := Outcome{Key: req.key, Index: req.index, Leader: -1}
	var e *entry
	if thief == nil {
		e = home.entries[req.key]
	} else if m := home.view.Load(); m != nil {
		e = (*m)[req.key]
	}
	if e != nil {
		e.mu.RLock()
		if d := e.d; d == nil {
			// Evicted between the view read and the lock.
			e.mu.RUnlock()
			e = nil
		} else {
			electErr := w.elect(d, r.fault)
			err := electErr
			if err == nil {
				err = d.Verify(&w.out)
			}
			if r.fault != nil && electErr == nil {
				// Accumulate the election's injected-fault account onto the
				// entry. Elections that ran but failed verification count
				// too: they observed their faults. A run that errored out
				// (electErr) left Result stale and is skipped; the clean
				// path (r.fault == nil) never takes this branch and stays
				// zero-cost.
				e.faults.add(w.out.Result.Faults)
			}
			leader, rounds := w.out.Leader(), w.out.Rounds
			e.mu.RUnlock()
			if err != nil {
				home.electFails.Add(1)
				out.Err = err
			} else {
				out.Leader = leader
				out.Rounds = rounds
				home.elections.Add(1)
				home.rounds.Add(int64(rounds))
			}
			req.reply <- response{out: out}
			return
		}
	}
	home.electFails.Add(1)
	out.Err = fmt.Errorf("%w: no configuration registered under %q", ErrUnknownKey, req.key)
	req.reply <- response{out: out}
}

// elect runs one election of d on the worker's simulator and outcome,
// creating the simulator on the worker's first election.
func (sh *shard) elect(d *election.Dedicated, fault *radio.FaultPlan) error {
	if sh.sim == nil {
		sim, err := radio.NewSimulator(d.Config)
		if err != nil {
			return err
		}
		sh.sim = sim
	}
	return d.ElectOn(sh.sim, &sh.out, radio.Options{Fault: fault})
}

// publishView republishes the copy-on-write entry view stealing siblings
// resolve keys through. It runs on the owning worker, only when the entry
// set changes (add or remove — a same-key replacement keeps the entry
// pointer and swaps the algorithm under the entry's write lock instead).
func (sh *shard) publishView() {
	if !sh.stealing {
		return
	}
	m := make(map[string]*entry, len(sh.entries))
	for k, e := range sh.entries {
		m[k] = e
	}
	sh.view.Store(&m)
}

// retiredBuckets is the number of size classes of the retired pool; class
// indices above it clamp into the last bucket.
const retiredBuckets = 16

// retiredBucket maps a configuration size onto its pool bucket: the size
// class is the bit length of n, so each bucket covers one power-of-two
// band (1, 2–3, 4–7, 8–15, ...) and a rebuild reuses buffers within a
// factor of two of what it needs.
func retiredBucket(n int) int {
	b := bits.Len(uint(n))
	if b >= retiredBuckets {
		b = retiredBuckets - 1
	}
	return b
}

// retire recycles a displaced or evicted algorithm into the rebuild pool so
// a later admission can rebuild in place on its retained buffers. Only
// registry-built algorithms are recycled: artifact-loaded ones (Report ==
// nil) own no classifier report and may alias caller-provided artifact
// memory.
func (r *Registry) retire(d *election.Dedicated) {
	if d == nil || d.Report == nil {
		return
	}
	r.retired[retiredBucket(d.Config.N())].Put(d)
}

// takeRetired hands a builder a retired algorithm of cfg's size class to
// rebuild into, or nil when that bucket is empty. Only the exact bucket is
// consulted: a cross-class retiree would be either too small to help or
// wastefully large, and leaving it in place keeps it available for its own
// class's churn.
func (r *Registry) takeRetired(cfg *config.Config) *election.Dedicated {
	d, _ := r.retired[retiredBucket(cfg.N())].Get().(*election.Dedicated)
	return d
}

// install admits a finished algorithm under key; it runs on the owning
// worker and is O(1) — the build already happened elsewhere. It returns the
// displaced algorithm (nil for a first admission), which no goroutine can
// reach once the swap completed.
func (sh *shard) install(key string, d *election.Dedicated, configCount *atomic.Int64) *election.Dedicated {
	e := sh.entries[key]
	if e == nil {
		e = &entry{}
		sh.entries[key] = e
		sh.publishView()
		configCount.Add(1)
	}
	e.mu.Lock()
	displaced := e.d
	e.d = d // replacing a key keeps its entry and fault account
	e.mu.Unlock()
	return displaced
}
