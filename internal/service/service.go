// Package service implements the sharded election service: a long-lived
// registry of dedicated leader-election algorithms served from worker-owned
// shards, with admissions built off the serve path by a bounded builder
// pool.
//
// The Registry hashes configuration keys onto N shards. A shard keeps its
// configurations (each an immutable *election.Dedicated: protocol and
// decision target) in one copy-on-write entry map, its view, and owns one
// worker goroutine that runs elections on one radio.Simulator and one
// ElectionOutcome. A key keeps no simulator: the worker rebinds its one
// simulator to the key it elects (election.Dedicated.ElectOn; a rebind is
// O(n) and allocation-free), so the worker's buffers are sized by the
// largest key it has served, not summed over its keys. Installs and
// evictions run on their caller's goroutine (a builder, a restore loader,
// journal replay, Evict) under the shard's mutex, which keeps them in one
// total order per shard, and journal their record before it is released;
// one that adds or removes a key publishes a new view. Every election, and
// every gather behind Stats, FaultKeyStats and snapshots, resolves keys
// with one atomic load of the view, so no reader enters a worker or waits
// for a mutation except on the one entry both touch. The steady-state
// serve path performs zero heap allocations: requests travel by value
// through buffered channels, reply channels are drawn from a pool, and the
// election itself runs on the zero-alloc ElectOn path.
//
// All workers drain one election queue: whichever worker is free takes the
// next election, whatever its key's home shard, and runs it on its own
// simulator. Placement is unchanged: FNV names every key's home shard,
// whose view resolves the key and whose counters record the outcome
// wherever the election runs. Elections hold the entry's read lock,
// installs and evictions its write lock, so two elections of one hot key
// run at once on two workers while an algorithm is never swapped or
// recycled under a running election, and outcomes do not depend on the
// worker. An eviction tombstones its entry (a nil algorithm) under the
// write lock, so an election or gather that read the view before the
// eviction finds the key gone. Elections of different keys differ in
// length by orders of magnitude (the dedicated algorithm runs in O(n²σ)
// rounds), and with one queue a short election never waits behind a long
// one while another worker idles, nor do a handful of hot keys hashed onto
// one shard pin one core — the skew a fleet router concentrates.
//
// Admissions are pipelined, not served inline: Register, RegisterCompiled
// and their Async variants enqueue onto a bounded admission queue drained
// by a pool of builder goroutines. A builder classifies and compiles the
// configuration (or validates its compiled artifact) on its own reusable
// build arena — outside every shard worker — and installs the finished
// algorithm on the owning shard itself. Elections on a shard therefore
// never wait behind a build. When the queue is full, admissions fail fast
// with ErrAdmissionBusy (backpressure; the HTTP layer maps it to 429), and
// every admission's progress is pollable through AdmissionStatus.
//
// The design trades large-result access for serve throughput: a served
// Outcome carries the elected leader and the round count by value, not the
// per-node histories (which live in worker-owned buffers and are
// overwritten by the next election on the same configuration). Callers that
// want to inspect full executions should build a Dedicated directly.
//
// A registry can be persisted and revived: Snapshot writes every admitted
// configuration as one journal admit record (key, configuration, compiled
// artifact) in a single entries file plus a manifest of keys, and Restore
// re-admits the set through election.Load, so a cold restart loads
// artifacts instead of re-running the classifier. Restore and journal
// replay also read the per-key files, JSON artifacts and records older
// releases wrote, and the phase tables and digests their artifacts carry.
// Package internal/server exposes a Registry over HTTP/JSON, and
// cmd/anonradiod is the deployable daemon around both.
package service

import (
	"errors"
	"fmt"
	"maps"
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
	// Shards is the number of shards, each with one election worker; <= 0
	// selects GOMAXPROCS. The election queue all workers drain holds 64
	// elections per shard.
	Shards int
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
	// Stolen counts elections of other shards' keys that this shard's
	// worker ran. Those elections are counted in their home shard's
	// Elections, not this one's.
	Stolen int64 `json:"stolen"`
	// StolenFrom counts elections of this shard's keys that other shards'
	// workers ran; they are still counted in this shard's Elections and
	// Rounds.
	StolenFrom int64 `json:"stolen_from"`
	// Queued is the shard's election backlog, the elections of its keys
	// waiting in the election queue when the snapshot was taken — the direct
	// observable for hot-shard skew.
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

// request is one election handed to the workers. It travels by value
// through the election queue, names its key's home shard, and the outcome
// comes back by value on reply.
type request struct {
	home  *shard
	key   string
	index int
	reply chan Outcome
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

// entry is one registered configuration. Elections (on any worker) and
// snapshot gathers hold mu's read side, installs and evictions its write
// side, so an algorithm is never swapped, retired or rebuilt in place under
// a running election while elections of one key overlap. d == nil under the
// lock marks an evicted entry that a reader holding an earlier view may
// still reach; every reader skips it. The fault counters are atomics
// because overlapping elections add to them; a gather takes the write side
// to read a consistent row.
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

// shard is one shard's entries and counters, and the election scratch of
// the worker goroutine it starts.
type shard struct {
	id int

	// sim and out are the worker's election scratch: every election the
	// worker executes, of any shard's key, runs on them. sim is created by
	// the worker's first election and rebound per election.
	sim *radio.Simulator
	out radio.ElectionOutcome

	// mu orders the shard's installs and evictions. Each runs on its
	// caller's goroutine with mu held, and one that adds or removes a key
	// publishes a new view before it unlocks.
	mu sync.Mutex
	// view is the shard's one entry map, copy-on-write: it is never written
	// once published (a same-key replace swaps d under the entry's write
	// lock and keeps the map). Readers load it without a lock.
	view atomic.Pointer[map[string]*entry]
	// queued counts the shard's elections in the election queue: raised by
	// submitters before the send, lowered by the worker that takes one.
	queued atomic.Int64
	// Counters, atomics because installs and elections update them from
	// any goroutine (a worker updates the home shard's of what it runs).
	builds     atomic.Int64 // admissions installed
	buildFails atomic.Int64 // admissions that failed to build or load
	elections  atomic.Int64
	rounds     atomic.Int64
	electFails atomic.Int64
	stolen     atomic.Int64 // other shards' elections this worker ran
	stolenFrom atomic.Int64 // this shard's elections other workers ran
}

// current returns the shard's view.
func (sh *shard) current() map[string]*entry { return *sh.view.Load() }

// Registry is the sharded election service. All methods, including Close,
// are safe for concurrent use.
type Registry struct {
	shards []*shard
	// elects is the election queue every worker drains. It holds 64
	// elections per shard, so batch submitters run ahead of busy workers;
	// past that, submitters block until a worker takes one.
	elects  chan request
	replies sync.Pool      // chan Outcome, cap 1 — single-request rendezvous
	batches sync.Pool      // chan Outcome, batch-sized — ElectBatch gather
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
	// probes (Len) read one counter. Installs and evictions update it.
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

	// beforeJournal, when non-nil, runs between a mutation and the write
	// of its journal record, with the shard's mutex held. Tests set it to
	// widen that gap; it stays nil otherwise.
	beforeJournal func(key string)
	// syncHook, when non-nil, runs before each fsync a snapshot makes and
	// fails the fsync with its error. Tests set it; it stays nil otherwise.
	syncHook func(name string) error
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
		elects:       make(chan request, 64*shards),
		drained:      make(chan struct{}),
		closeDone:    make(chan struct{}),
		fault:        opts.Fault,
		buildHook:    opts.BuildHook,
		admissions:   make(chan admission, queue),
		builderCount: builders,
		admitted:     make(map[string]*admissionRecord),
	}
	r.replies.New = func() any { return make(chan Outcome, 1) }
	for i := range r.shards {
		sh := &shard{id: i}
		sh.view.Store(&map[string]*entry{})
		r.shards[i] = sh
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
// to the same shard, so its installs and evictions are totally ordered by
// the shard's mutex.
func (r *Registry) shardFor(key string) *shard {
	return r.shards[fnv.String64(key)%uint64(len(r.shards))]
}

// submit queues one election for key on the election queue. Callers must
// hold a lifecycle acquire slot, so the queue cannot be closed underneath
// the send.
func (r *Registry) submit(key string, index int, reply chan Outcome) {
	home := r.shardFor(key)
	home.queued.Add(1)
	r.elects <- request{home: home, key: key, index: index, reply: reply}
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
	reply := r.replies.Get().(chan Outcome)
	if err := r.enqueue(admission{key: key, cfg: cfg, compiled: c, reply: reply}); err != nil {
		r.replies.Put(reply)
		return err
	}
	out := <-reply
	r.replies.Put(reply)
	return out.Err
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
	var record []byte
	if r.wal != nil {
		record = walEvictRecord(key)
	}
	present, seq, err := r.evict(key, record)
	if !present {
		return false, nil
	}
	r.admitMu.Lock()
	if rec := r.admitted[key]; rec != nil && rec.state.Terminal() {
		delete(r.admitted, key)
	}
	r.admitMu.Unlock()
	if record != nil && err == nil {
		// The eviction is journaled; wait for the durability the sync
		// policy asks for before the caller learns of it. Journal failures
		// only surface in WALStats: the eviction already happened.
		_ = r.walWait(seq)
	}
	return true, nil
}

// Elect serves one election for the configuration registered under key.
// This is the steady-state path: once the registry is warm it performs zero
// heap allocations end to end (pooled rendezvous channel, value-typed
// request and outcome, zero-alloc ElectOn on the worker's simulator), entering
// the lifecycle with one uncontended CAS instead of an RWMutex read, and it
// never waits behind an admission — builds run on the builder pool, not
// the shard.
func (r *Registry) Elect(key string) (Outcome, error) {
	if !r.acquire() {
		return Outcome{Key: key, Leader: -1, Err: ErrClosed}, ErrClosed
	}
	defer r.release()
	reply := r.replies.Get().(chan Outcome)
	r.submit(key, 0, reply)
	out := <-reply
	r.replies.Put(reply)
	return out, out.Err
}

// ElectBatch serves one election per key, writing the outcome for keys[i]
// into slot i of the returned slice (outs is reused when it has capacity;
// pass nil to allocate). Every request is queued up front and the workers
// run them concurrently; the returned error is the first per-key error in
// submission order (inspect the outcomes for the rest).
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
		r.submit(key, i, reply)
	}
	for range keys {
		out := <-reply
		outs[out.Index] = out
	}
	r.batches.Put(reply)
	for i := range outs {
		if outs[i].Err != nil {
			return outs, outs[i].Err
		}
	}
	return outs, nil
}

// batchReply returns a pooled gather channel with room for n outcomes, so
// workers never block on the reply side and a steady batch workload reuses
// one channel. A pooled channel that is too small is dropped for a larger
// one.
func (r *Registry) batchReply(n int) chan Outcome {
	if ch, ok := r.batches.Get().(chan Outcome); ok && cap(ch) >= n {
		return ch
	}
	return make(chan Outcome, n)
}

// Stats reads every shard's counters and view. It reads atomics and never
// enters a shard worker, so it answers at once however busy the shards
// are; a row is therefore not one instant's cut, as elections and
// admissions land while it is read. On a closed registry it returns
// ErrClosed rather than all-zero rows that would read as a healthy empty
// server.
func (r *Registry) Stats() ([]ShardStats, error) {
	if !r.acquire() {
		return nil, ErrClosed
	}
	defer r.release()
	stats := make([]ShardStats, len(r.shards))
	for i, sh := range r.shards {
		stats[i] = ShardStats{
			Shard:      sh.id,
			Configs:    len(sh.current()),
			Builds:     sh.builds.Load(),
			Elections:  sh.elections.Load(),
			Failures:   sh.buildFails.Load() + sh.electFails.Load(),
			Rounds:     sh.rounds.Load(),
			Stolen:     sh.stolen.Load(),
			StolenFrom: sh.stolenFrom.Load(),
			Queued:     int(sh.queued.Load()),
		}
	}
	return stats, nil
}

// FaultKeyStats gathers the accumulated injected-fault counters of every
// registered key, in sorted key order. On a registry without a fault plan it
// returns (nil, nil) — the counters exist only on the faulted path — and on
// a closed one ErrClosed. It reads each shard's view and takes each entry's
// write lock, so a concurrent election never tears a row,
// and a key evicted after the view was read has no row.
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
		for key, e := range sh.current() {
			if row, ok := e.faultRow(key); ok {
				stats = append(stats, row)
			}
		}
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Key < stats[j].Key })
	return stats, nil
}

// faultRow reads the entry's fault account under its write lock; ok is
// false for an entry an eviction tombstoned.
func (e *entry) faultRow(key string) (KeyFaultStats, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.d == nil {
		return KeyFaultStats{}, false
	}
	return KeyFaultStats{
		Key:          key,
		Elections:    e.faults.elections.Load(),
		Drops:        e.faults.drops.Load(),
		Noise:        e.faults.noise.Load(),
		OutageRounds: e.faults.outageRounds.Load(),
	}, true
}

// Len returns the number of registered configurations across all shards.
// It reads a cached counter that installs and evictions maintain, so
// liveness probes stay responsive no matter how busy the shards are. After
// Close it keeps reporting the final count.
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
	// first the builders (which may still be installing), then the shard
	// workers.
	close(r.admissions)
	r.builders.Wait()
	// The election queue is empty (every queued election had a waiter
	// counted by the lifecycle drain), so closing it only releases idle
	// workers.
	close(r.elects)
	r.workers.Wait()
	if r.wal != nil {
		// The builders are drained, so every acknowledged record is
		// already appended; this flushes and fsyncs the tail (SyncOff's
		// process buffer included).
		_ = r.wal.Close()
	}
	close(r.closeDone)
}

// worker runs elections from the election queue on w's simulator until
// Close closes the queue: whichever worker is free takes the next election,
// whatever its key's home shard.
func (r *Registry) worker(w *shard) {
	defer r.workers.Done()
	for req := range r.elects {
		r.runElect(w, req)
	}
}

// runElect executes one queued election on worker w's simulator. The entry
// resolves through the home shard's view and every serving counter is the
// home shard's, so outcomes and counters do not depend on the worker: an
// election only reads its algorithm.
func (r *Registry) runElect(w *shard, req request) {
	home := req.home
	home.queued.Add(-1)
	if w != home {
		w.stolen.Add(1)
		home.stolenFrom.Add(1)
	}
	out := Outcome{Key: req.key, Index: req.index, Leader: -1}
	if e := home.current()[req.key]; e != nil {
		e.mu.RLock()
		if d := e.d; d == nil {
			// Evicted between the view read and the lock.
			e.mu.RUnlock()
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
			req.reply <- out
			return
		}
	}
	home.electFails.Add(1)
	out.Err = fmt.Errorf("%w: no configuration registered under %q", ErrUnknownKey, req.key)
	req.reply <- out
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

// install hands one admission's algorithm to key's shard on the calling
// goroutine (a builder, a restore loader, journal replay). It replaces the
// algorithm key's entry holds — keeping the entry and its fault account —
// or enters a new view under a new entry. The displaced algorithm, which no
// election holds once the swap is done, goes to the rebuild pool. A
// non-nil record is journaled before the shard's mutex is released (see
// journal), and its sequence number is returned for walWait.
func (r *Registry) install(key string, d *election.Dedicated, record []byte) (uint64, error) {
	sh := r.shardFor(key)
	sh.mu.Lock()
	if e := sh.current()[key]; e != nil {
		e.mu.Lock()
		d, e.d = e.d, d
		e.mu.Unlock()
	} else {
		sh.publish(key, &entry{d: d})
		r.configCount.Add(1)
		d = nil
	}
	sh.builds.Add(1)
	seq, err := r.journal(key, record)
	sh.mu.Unlock()
	r.retire(d)
	return seq, err
}

// evict removes key's entry on the calling goroutine and reports whether
// it was present. The entry is tombstoned under its write lock, so a reader
// that reached it through an earlier view skips it, and the evicted
// algorithm goes to the rebuild pool. A non-nil record is journaled, as by
// install, when the key was present.
func (r *Registry) evict(key string, record []byte) (bool, uint64, error) {
	sh := r.shardFor(key)
	sh.mu.Lock()
	e := sh.current()[key]
	if e == nil {
		sh.mu.Unlock()
		return false, 0, nil
	}
	e.mu.Lock()
	d := e.d
	e.d = nil
	e.mu.Unlock()
	sh.publish(key, nil)
	r.configCount.Add(-1)
	seq, err := r.journal(key, record)
	sh.mu.Unlock()
	r.retire(d)
	return true, seq, err
}

// publish replaces the view with a copy that maps key to e, or lacks key
// when e is nil. Callers hold sh.mu.
func (sh *shard) publish(key string, e *entry) {
	m := maps.Clone(sh.current())
	if e != nil {
		m[key] = e
	} else {
		delete(m, key)
	}
	sh.view.Store(&m)
}
