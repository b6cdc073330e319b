package service

import (
	"errors"
	"fmt"

	"anonradio/internal/config"
	"anonradio/internal/election"
)

// This file implements the admission pipeline: a bounded queue in front of
// a pool of builder goroutines that classify, compile and validate
// configurations *off* the serve path, then install the finished algorithm
// on the owning shard under its mutex, never through its worker. The
// pipeline is what keeps elections on a shard from stalling behind a
// concurrent build on the same shard (TestElectNotBlockedByAdmission pins
// it).

// ErrAdmissionBusy is returned (wrapped) by registrations when the bounded
// admission queue is full. It is the service's backpressure signal: the
// caller should retry after a short delay (the HTTP layer surfaces it as
// 429 with a Retry-After header).
var ErrAdmissionBusy = errors.New("service: admission queue is full")

// ErrInvalidConfig is returned (wrapped) by Admit for configuration text
// that does not parse into a valid configuration (the HTTP layer answers
// it with 400).
var ErrInvalidConfig = errors.New("service: invalid configuration")

// AdmissionState is the lifecycle of one admission.
type AdmissionState uint8

const (
	// AdmissionUnknown means no admission was ever submitted for the key.
	AdmissionUnknown AdmissionState = iota
	// AdmissionQueued means the admission sits in the bounded queue, ahead
	// of the builder pool.
	AdmissionQueued
	// AdmissionBuilding means a builder is classifying, compiling or
	// validating the configuration.
	AdmissionBuilding
	// AdmissionDone means the algorithm is installed and servable.
	AdmissionDone
	// AdmissionFailed means the admission failed (infeasible configuration,
	// invalid artifact, registry closed mid-flight); Err carries the cause.
	AdmissionFailed
)

// String returns the lower-case wire name of the state.
func (s AdmissionState) String() string {
	switch s {
	case AdmissionQueued:
		return "queued"
	case AdmissionBuilding:
		return "building"
	case AdmissionDone:
		return "done"
	case AdmissionFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final (done or failed).
func (s AdmissionState) Terminal() bool {
	return s == AdmissionDone || s == AdmissionFailed
}

// AdmissionStatus is the pollable progress of the most recent admission
// submitted for a key (synchronous or asynchronous).
type AdmissionStatus struct {
	// Key is the registry key the admission was submitted under.
	Key string
	// State is the admission's lifecycle state.
	State AdmissionState
	// Err carries the failure when State is AdmissionFailed. With
	// AdmissionUnknown it is nil from a registry; a front end that asks
	// another process for the status (internal/fleet) sets it when that
	// call failed.
	Err error
}

// Admission is one registration as a front end hands it to Admit: the key,
// the configuration in the text format of internal/config, an optional
// compiled artifact to load instead of classifying and building, and
// whether to queue it (Async) instead of waiting for it. Frame is the
// WAL-admit frame the admission arrived in, when it came as one (POST
// /v1/admit/artifact); a front end that forwards admissions instead of
// performing them (internal/fleet) passes it on as it is, and the registry
// does not read it.
type Admission struct {
	Key      string
	Config   string
	Artifact *election.Compiled
	Async    bool
	Frame    []byte
}

// Admit parses a's configuration text and admits it as Register,
// RegisterAsync or RegisterCompiled would, or asynchronously from its
// artifact, as its Artifact and Async select. Text that does not parse
// into a valid configuration returns ErrInvalidConfig (wrapped).
func (r *Registry) Admit(a Admission) error {
	cfg, err := config.Unmarshal(a.Config)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	if a.Async {
		return r.admitAsync(a.Key, cfg, a.Artifact)
	}
	return r.admitSync(a.Key, cfg, a.Artifact)
}

// AdmissionStats is a snapshot of the pipeline's counters.
type AdmissionStats struct {
	// Builders is the size of the builder pool.
	Builders int `json:"builders"`
	// QueueCapacity is the bound of the admission queue.
	QueueCapacity int `json:"queue_capacity"`
	// Pending counts admissions submitted but not yet terminal (queued or
	// building).
	Pending int64 `json:"pending"`
	// Submitted counts admissions accepted into the queue.
	Submitted int64 `json:"submitted"`
	// Completed counts admissions that installed successfully.
	Completed int64 `json:"completed"`
	// Failed counts admissions that ended in AdmissionFailed.
	Failed int64 `json:"failed"`
	// Rejected counts registrations refused with ErrAdmissionBusy (429 over
	// HTTP).
	Rejected int64 `json:"rejected"`
	// ArtifactLoads counts admissions installed from an artifact through
	// election.Load: registered or shipped (RegisterCompiled), restored from
	// a snapshot, or replayed from the journal. A key migration that ships
	// its artifact instead of rebuilding shows up here as one artifact load
	// on the receiver and no classifier run.
	ArtifactLoads int64 `json:"artifact_loads"`
	// RebuildHits counts builds that reused a retired algorithm's buffers
	// (rebuild-in-place) instead of allocating fresh ones; the retired pool
	// is bucketed by configuration size class, so churn across several
	// shapes still hits.
	RebuildHits int64 `json:"rebuild_hits"`
}

// admissionRecord tracks one admission's progress. The submitting call
// allocates it, the builder mutates it (under admitMu), and AdmissionStatus
// reads it; re-admitting a key replaces the map entry but in-flight older
// admissions keep updating their own detached record.
type admissionRecord struct {
	state AdmissionState
	err   error
}

// admission is one queued registration, handed from the submitting call to
// a builder goroutine.
type admission struct {
	key      string
	cfg      *config.Config
	compiled *election.Compiled
	rec      *admissionRecord
	reply    chan Outcome // non-nil for synchronous admissions
}

// RegisterAsync enqueues an admission of cfg under key and returns without
// waiting for the build: the builder pool classifies and compiles it in the
// background and installs it on the owning shard. Poll AdmissionStatus(key)
// for progress. It returns ErrAdmissionBusy (wrapped) when the admission
// queue is full and ErrClosed on a closed registry; build failures are
// reported through the admission status, not the return value.
func (r *Registry) RegisterAsync(key string, cfg *config.Config) error {
	if cfg == nil {
		return fmt.Errorf("service: nil configuration")
	}
	return r.admitAsync(key, cfg, nil)
}

// admitAsync enqueues an admission onto the builder pool without a reply
// channel.
func (r *Registry) admitAsync(key string, cfg *config.Config, c *election.Compiled) error {
	if !r.acquire() {
		return ErrClosed
	}
	defer r.release()
	return r.enqueue(admission{key: key, cfg: cfg, compiled: c})
}

// AdmissionStatus reports the progress of the most recent admission
// submitted for key through the pipeline (State is AdmissionUnknown if none
// was). Statuses describe admissions, not presence — use Elect or Stats for
// the serving side. Records are bounded, not eternal: evicting a key drops
// its terminal record, and when the map would grow past its cap (see
// admittedCap) all terminal records are pruned — a poller that abandoned a
// finished admission thousands of admissions ago reads AdmissionUnknown.
func (r *Registry) AdmissionStatus(key string) AdmissionStatus {
	r.admitMu.Lock()
	defer r.admitMu.Unlock()
	rec := r.admitted[key]
	if rec == nil {
		return AdmissionStatus{Key: key, State: AdmissionUnknown}
	}
	return AdmissionStatus{Key: key, State: rec.state, Err: rec.err}
}

// AdmissionStats snapshots the pipeline counters. It reads atomics only —
// like Len, it stays responsive under load.
func (r *Registry) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		Builders:      r.builderCount,
		QueueCapacity: cap(r.admissions),
		Pending:       r.admPending.Load(),
		Submitted:     r.admSubmitted.Load(),
		Completed:     r.admCompleted.Load(),
		Failed:        r.admFailed.Load(),
		Rejected:      r.admRejected.Load(),
		ArtifactLoads: r.artifactLoads.Load(),
		RebuildHits:   r.rebuildHits.Load(),
	}
}

// enqueue offers the admission to the bounded queue without blocking,
// creating its pollable record on acceptance. Callers hold a lifecycle
// acquire slot, so the queue cannot be closed underneath the send (Close
// waits for the slot count to drain first).
func (r *Registry) enqueue(job admission) error {
	job.rec = &admissionRecord{state: AdmissionQueued}
	r.admitMu.Lock()
	select {
	case r.admissions <- job:
		if len(r.admitted) >= r.admitCap() {
			r.pruneAdmitted()
		}
		r.admitted[job.key] = job.rec
		r.admitMu.Unlock()
		r.admSubmitted.Add(1)
		r.admPending.Add(1)
		return nil
	default:
		r.admitMu.Unlock()
		r.admRejected.Add(1)
		return fmt.Errorf("%w (capacity %d); retry later", ErrAdmissionBusy, cap(r.admissions))
	}
}

// admitCap bounds the admission-status map so unbounded key churn cannot
// leak a record per key forever. Non-terminal records never exceed the
// queue bound plus the builder pool, so a prune always gets well under the
// cap.
func (r *Registry) admitCap() int {
	if c := 4 * cap(r.admissions); c > 4096 {
		return c
	}
	return 4096
}

// pruneAdmitted drops every terminal (done/failed) record; callers hold
// admitMu. Amortized O(1) per admission: each sweep frees at least
// cap - (queue + builders) slots.
func (r *Registry) pruneAdmitted() {
	for key, rec := range r.admitted {
		if rec.state.Terminal() {
			delete(r.admitted, key)
		}
	}
}

// setRecord publishes an admission's state transition.
func (r *Registry) setRecord(rec *admissionRecord, state AdmissionState, err error) {
	r.admitMu.Lock()
	rec.state, rec.err = state, err
	r.admitMu.Unlock()
}

// builder is one pool goroutine: it owns a reusable build arena and drains
// the admission queue until Close.
func (r *Registry) builder() {
	defer r.builders.Done()
	arena := election.NewBuildArena()
	for job := range r.admissions {
		r.admit(arena, job)
	}
}

// admit runs one admission end to end on the builder goroutine: build (or
// validate) off the serve path, install on the owning shard, journal, then
// publish the terminal state and wake a synchronous waiter.
func (r *Registry) admit(arena *election.BuildArena, job admission) {
	if job.reply == nil && r.isClosed() {
		// Close has begun: fail queued asynchronous jobs fast instead of
		// building into a tearing-down registry. Synchronous waiters hold
		// a lifecycle slot — Close's drain waits for them — so their
		// builds still run against live shards and complete normally.
		r.finish(job, ErrClosed)
		return
	}
	r.setRecord(job.rec, AdmissionBuilding, nil)
	if r.buildHook != nil {
		r.buildHook(job.key)
	}
	var (
		d   *election.Dedicated
		err error
	)
	if job.compiled != nil {
		d, err = election.Load(job.compiled, job.cfg)
	} else {
		d, err = r.buildDedicated(arena, job.cfg)
	}
	// Encode the journal record now, while d is still builder-private: the
	// moment it is installed the algorithm is live, and a concurrent
	// evict → retire → rebuild on another builder may start recycling the
	// very report and list memory Compile reads.
	var walPayload []byte
	if err == nil && r.wal != nil {
		walPayload = r.walEncodeAdmit(job.key, d)
	}
	// Failures go through install too, so the shard's Failures counter
	// stays the authoritative per-shard account of failed admissions.
	err = r.install(job.key, d, err)
	if err == nil && job.compiled != nil {
		r.artifactLoads.Add(1)
	}
	if err == nil && r.wal != nil {
		// Append the pre-encoded record on this builder goroutine — after
		// the install (so checkpoint rotation can never freeze a record
		// whose install hasn't happened) and before the acknowledgment (so
		// an acknowledged admission is as durable as the sync policy
		// promises). A failed append fails the admission: the entry serves
		// until the next reboot, but the caller is told its registration
		// is not durable.
		if walErr := r.walAppend(walPayload); walErr != nil {
			err = fmt.Errorf("service: admission installed but not journaled (will not survive a restart): %w", walErr)
		}
	}
	r.finish(job, err)
}

// buildDedicated builds cfg on the builder's arena, recycling a retired
// algorithm's memory when the pool has one (rebuild-in-place): re-admission
// churn then retains report lists, phase tables and decision targets across
// generations instead of reallocating them per build. Rebuilds mutate
// memory that snapshot artifacts alias (the lists), so they are fenced
// behind the snapshot's writer lock.
func (r *Registry) buildDedicated(arena *election.BuildArena, cfg *config.Config) (*election.Dedicated, error) {
	prev := r.takeRetired(cfg)
	if prev == nil {
		return election.BuildDedicatedInto(arena, cfg)
	}
	r.rebuildHits.Add(1)
	r.snapMu.RLock()
	defer r.snapMu.RUnlock()
	return arena.RebuildInto(prev, cfg)
}

// finish publishes the terminal admission state and releases a synchronous
// waiter.
func (r *Registry) finish(job admission, err error) {
	if err != nil {
		r.setRecord(job.rec, AdmissionFailed, err)
		r.admFailed.Add(1)
	} else {
		r.setRecord(job.rec, AdmissionDone, nil)
		r.admCompleted.Add(1)
	}
	r.admPending.Add(-1)
	if job.reply != nil {
		job.reply <- Outcome{Key: job.key, Leader: -1, Err: err}
	}
}
