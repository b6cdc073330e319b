package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// This file makes the registry durable: every admission and eviction is
// journaled to a write-ahead log (internal/wal) the moment it is
// acknowledged, the journal is replayed at the next boot through
// election.Load, and a background checkpoint periodically snapshots the
// registry and truncates the journal. The layering keeps durability
// strictly off the election serve path:
//
//	admission:  builder builds → builder installs on the shard and writes
//	            the compiled artifact to the journal under the shard's
//	            mutex → waits for the sync policy → acknowledge
//	eviction:   caller evicts from the shard and writes the evict record
//	            under the shard's mutex → waits for the sync policy →
//	            return
//	election:   untouched — shard workers never see the journal, and the
//	            steady-state Elect stays zero-alloc
//	checkpoint: rotate the journal, Snapshot the registry (staged, manifest
//	            committed last), delete the frozen segments
//	boot:       restore the checkpoint (tolerating per-entry damage), replay
//	            the journal (tolerating torn/corrupt records), then open a
//	            fresh segment for new appends
//
// Appending *after* the install (write-behind-before-acknowledge)
// rather than before it is what makes checkpointing race-free: a record in
// a frozen segment implies its install happened before the rotation, hence
// before the snapshot gather — so deleting frozen segments after the
// snapshot commits can never drop an un-snapshotted mutation. Writing the
// record before the shard's mutex is released makes the journal order of
// two mutations of one key their install order, so replay ends where the
// live registry did. A crash between install and append loses only
// un-acknowledged work, and replay is idempotent (an install is a
// replace), so the crash windows around checkpointing all converge to the
// acknowledged state.
//
// Journal records and checkpoint artifacts are written as binary wire
// frames. Replay and restore sniff each record and artifact file, so a
// directory written by an older release in JSON (records, checkpoint, or
// both) boots unchanged, and its next checkpoint rewrites it as binary.

// CheckpointDirName is the snapshot subdirectory inside the journal
// directory.
const CheckpointDirName = "checkpoint"

// WALOptions configure the registry's admission journal; a non-empty Dir
// enables it.
type WALOptions struct {
	// Dir is the journal directory: segment files plus the checkpoint
	// subdirectory. Empty disables durability.
	Dir string
	// Sync is the append durability policy (see wal.SyncPolicy); the zero
	// value is wal.SyncAlways.
	Sync wal.SyncPolicy
	// CheckpointEvery triggers a background checkpoint on a timer; 0
	// disables the timer (the journal then only truncates on record-count
	// triggers or explicit Checkpoint calls).
	CheckpointEvery time.Duration
	// CheckpointRecords triggers a background checkpoint once that many
	// records accumulated in the journal since the last one. 0 (the
	// default) selects automatic pacing: the threshold tracks the registry
	// size as clamp(4×registered configurations, 64, 8192), so the journal
	// a crash would replay stays proportional to the state a checkpoint
	// rewrites — small registries checkpoint cheaply and often, large ones
	// amortize the snapshot cost over more appends. A negative value
	// disables the count trigger entirely (the journal then only truncates
	// on the timer or explicit Checkpoint calls).
	CheckpointRecords int64
}

// walRecord is the JSON payload of one JSON-era journal record. The journal
// is written as binary wire frames; replay still decodes these records, so
// journals written by older releases boot unchanged.
type walRecord struct {
	// Op is "admit" or "evict".
	Op string `json:"op"`
	// Key is the registry key the operation applied to.
	Key string `json:"key"`
	// Config is the configuration text (admit only).
	Config string `json:"config,omitempty"`
	// Artifact is the compiled algorithm installed for the key, which
	// replay loads instead of rebuilding (admit only).
	Artifact *election.Compiled `json:"artifact,omitempty"`
}

const (
	walOpAdmit = "admit"
	walOpEvict = "evict"
)

// RecordFault is one journal record recovery could not apply.
type RecordFault struct {
	// Index is the record's position in the replay (0-based, counting
	// applied, compacted and skipped records).
	Index int
	// Op and Key identify the record when its envelope decoded.
	Op, Key string
	// Reason describes the failure.
	Reason string
}

// RecoveryReport summarizes what Open brought back.
type RecoveryReport struct {
	// CheckpointRestored reports whether a checkpoint snapshot existed and
	// was restored.
	CheckpointRestored bool
	// Checkpoint is the restore report of the checkpoint (zero when none
	// existed); its Skipped list carries per-entry damage.
	Checkpoint RestoreReport
	// Journal is the framing-level replay report: segments visited, intact
	// records, torn tails truncated, corrupt records resynchronized over.
	Journal *wal.Report
	// Admits and Evicts count journal records applied.
	Admits, Evicts int
	// Compacted counts admit records replay skipped because a later evict
	// for the same key sits in the un-checkpointed journal tail: the entry
	// is gone again by the end of the replay, so decoding, validating and
	// installing its artifact would be pure wasted boot work. The paired
	// evicts still apply (an evict also erases a checkpoint-restored
	// entry). Compaction is an optimization, not damage — it leaves
	// Clean() untouched.
	Compacted int
	// Skipped lists journal records that were intact at the framing level
	// but could not be applied (undecodable payload, artifact rejected by
	// validation, unknown op).
	Skipped []RecordFault
}

// Clean reports whether recovery saw no damage at all.
func (r *RecoveryReport) Clean() bool {
	return len(r.Skipped) == 0 && len(r.Checkpoint.Skipped) == 0 &&
		(r.Journal == nil || r.Journal.Clean())
}

// WALStats is a snapshot of the journal's counters, served from atomics
// only — reading it never contends with appends, fsyncs or checkpoints.
type WALStats struct {
	// Enabled reports whether the registry journals at all; every other
	// field is zero when false.
	Enabled bool `json:"enabled"`
	// Dir is the journal directory.
	Dir string `json:"dir,omitempty"`
	// Policy is the fsync policy ("always", "batch", "off").
	Policy string `json:"policy,omitempty"`
	// Appends counts records journaled since boot.
	Appends uint64 `json:"appends"`
	// Unsynced is the WAL lag: records acknowledged but not yet on stable
	// storage (always 0 under "always"; bounded by the batch interval under
	// "batch"; unbounded under "off").
	Unsynced uint64 `json:"unsynced"`
	// Syncs counts fsync calls.
	Syncs uint64 `json:"syncs"`
	// AppendFailures counts admissions that installed but could not be
	// journaled (reported to the caller as failed admissions).
	AppendFailures int64 `json:"append_failures"`
	// JournalBytes is the journal size across all segments.
	JournalBytes int64 `json:"journal_bytes"`
	// Segments is the number of segment files, including the active one.
	Segments int `json:"segments"`
	// RecordsSinceCheckpoint counts journal records not yet covered by a
	// checkpoint (what a crash would replay).
	RecordsSinceCheckpoint int64 `json:"records_since_checkpoint"`
	// Checkpoints counts completed checkpoints since boot.
	Checkpoints int64 `json:"checkpoints"`
	// CheckpointFailures counts background checkpoints that failed.
	CheckpointFailures int64 `json:"checkpoint_failures"`
	// LastCheckpointSeconds is the duration of the most recent checkpoint.
	LastCheckpointSeconds float64 `json:"last_checkpoint_seconds"`
}

// Open starts a durable registry: it restores the checkpoint snapshot in
// opts.WAL.Dir (if one exists), replays the admission journal through
// election.Load, opens a fresh journal segment for new
// appends, and starts the background checkpointer. Recovery tolerates
// damage instead of refusing to boot — torn tails are truncated, corrupt
// records and damaged checkpoint entries are skipped — and every such
// decision is in the returned report; callers that require a loss-free
// boot must check report.Clean().
//
// Open fails only when the journal directory itself is unusable or the
// checkpoint manifest is present but unreadable.
func Open(opts Options) (*Registry, *RecoveryReport, error) {
	w := opts.WAL
	if w.Dir == "" {
		return nil, nil, fmt.Errorf("service: Open requires Options.WAL.Dir (use New for a non-durable registry)")
	}
	if err := os.MkdirAll(w.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: creating journal directory: %w", err)
	}
	r := newCore(opts)
	r.walOpts = w
	report := &RecoveryReport{}
	ckDir := filepath.Join(w.Dir, CheckpointDirName)
	if _, err := os.Stat(filepath.Join(ckDir, ManifestFile)); err == nil {
		rr, err := r.Restore(ckDir)
		if err != nil {
			r.Close()
			return nil, nil, fmt.Errorf("service: restoring checkpoint: %w", err)
		}
		report.CheckpointRestored = true
		report.Checkpoint = *rr
	}
	compact, jr, err := walScan(w.Dir)
	report.Journal = jr
	if err != nil {
		r.Close()
		return nil, nil, fmt.Errorf("service: replaying journal: %w", err)
	}
	idx := 0
	if _, err := wal.Replay(w.Dir, func(payload []byte) error {
		if compact[idx] {
			report.Compacted++
		} else {
			r.applyRecord(payload, report)
		}
		idx++
		return nil
	}); err != nil {
		r.Close()
		return nil, nil, fmt.Errorf("service: replaying journal: %w", err)
	}
	log, err := wal.Open(w.Dir, wal.Options{Sync: w.Sync})
	if err != nil {
		r.Close()
		return nil, nil, err
	}
	r.wal = log
	// Everything just replayed is journal-only state; count it toward the
	// next checkpoint so a record-count trigger fires even across reboots.
	r.walRecords.Store(int64(jr.Records))
	r.checkpointKick = make(chan struct{}, 1)
	r.checkpointStop = make(chan struct{})
	r.checkpointWG.Add(1)
	go r.checkpointer(w.CheckpointEvery)
	if r.checkpointDue(int64(jr.Records)) {
		r.kickCheckpoint()
	}
	return r, report, nil
}

// walScan is the compaction pre-pass over the journal: one cheap replay
// that peeks only each record's (op, key) envelope — artifacts are never
// decoded — and pairs every admit with a later evict of the same key. An
// admit whose key is evicted again later in the un-checkpointed tail is
// dead on arrival: replaying it would decode, validate and install an
// artifact only for the later evict record to drop it. The returned set
// holds the journal positions of those admits; the apply pass skips them
// and counts them in RecoveryReport.Compacted. Evicts are never compacted
// (an evict also erases a checkpoint-restored entry, and replaying one is
// idempotent and nearly free), and admits superseded by a later *admit*
// are not either — the replacement install is exactly how the live
// sequence behaved, and dropping the older one would change what a replay
// interrupted mid-journal reconstructs. Records whose envelope cannot be
// peeked are left for the apply pass to report.
//
// The scan doubles as the damage-repair pass: wal.Replay physically
// truncates torn tails on first contact, so the report returned here (not
// the apply pass's, which reads the already-repaired journal as clean) is
// the honest account of what recovery found.
func walScan(dir string) (map[int]bool, *wal.Report, error) {
	type admitAt struct {
		key string
		idx int
	}
	var admits []admitAt
	lastEvict := make(map[string]int)
	idx := 0
	jr, err := wal.Replay(dir, func(payload []byte) error {
		op, key, ok := peekRecord(payload)
		if ok {
			switch op {
			case walOpAdmit:
				admits = append(admits, admitAt{key, idx})
			case walOpEvict:
				lastEvict[key] = idx
			}
		}
		idx++
		return nil
	})
	if err != nil {
		return nil, jr, err
	}
	var skip map[int]bool
	for _, a := range admits {
		if e, ok := lastEvict[a.key]; ok && e > a.idx {
			if skip == nil {
				skip = make(map[int]bool)
			}
			skip[a.idx] = true
		}
	}
	return skip, jr, nil
}

// peekRecord sniffs one journal record's (op, key) envelope without
// decoding its body, in either encoding era.
func peekRecord(payload []byte) (op, key string, ok bool) {
	if wire.IsFrame(payload) {
		typ, body, rest, err := wire.DecodeFrame(payload)
		if err != nil || len(rest) != 0 {
			return "", "", false
		}
		k, kok := wire.PeekWALKey(typ, body)
		if !kok {
			return "", "", false
		}
		if typ == wire.FrameWALAdmit {
			return walOpAdmit, k, true
		}
		return walOpEvict, k, true
	}
	var env struct {
		Op  string `json:"op"`
		Key string `json:"key"`
	}
	if err := json.Unmarshal(payload, &env); err != nil {
		return "", "", false
	}
	return env.Op, env.Key, true
}

// applyRecord applies one replayed journal record; failures are recorded,
// never fatal. It runs during Open, before the registry escapes, so the
// installs and evictions need no public-API locking. The record's encoding
// is sniffed per payload (wire frames start with the wire magic, JSON
// records with '{'), so a journal with mixed-era records replays whole.
func (r *Registry) applyRecord(payload []byte, report *RecoveryReport) {
	idx := report.Admits + report.Evicts + report.Compacted + len(report.Skipped)
	skip := func(op, key, reason string) {
		report.Skipped = append(report.Skipped, RecordFault{Index: idx, Op: op, Key: key, Reason: reason})
	}
	if wire.IsFrame(payload) {
		typ, body, rest, err := wire.DecodeFrame(payload)
		if err != nil {
			skip("", "", fmt.Sprintf("undecodable record frame: %v", err))
			return
		}
		if len(rest) != 0 {
			skip("", "", "trailing bytes after record frame")
			return
		}
		switch typ {
		case wire.FrameWALAdmit:
			var rec wire.WALAdmit
			if err := rec.DecodeFrom(body); err != nil {
				skip(walOpAdmit, "", fmt.Sprintf("undecodable admit record: %v", err))
				return
			}
			r.applyAdmit(rec.Key, rec.Config, rec.Artifact, report, skip)
		case wire.FrameWALEvict:
			var rec wire.WALEvict
			if err := rec.DecodeFrom(body); err != nil {
				skip(walOpEvict, "", fmt.Sprintf("undecodable evict record: %v", err))
				return
			}
			r.evict(rec.Key, nil)
			report.Evicts++
		default:
			skip("", "", fmt.Sprintf("unexpected record frame type %v", typ))
		}
		return
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		skip("", "", fmt.Sprintf("undecodable record: %v", err))
		return
	}
	switch rec.Op {
	case walOpAdmit:
		r.applyAdmit(rec.Key, rec.Config, rec.Artifact, report, skip)
	case walOpEvict:
		r.evict(rec.Key, nil)
		report.Evicts++
	default:
		skip(rec.Op, rec.Key, fmt.Sprintf("unknown op %q", rec.Op))
	}
}

// applyAdmit loads and installs one replayed admit record (either
// encoding); an artifact Load rejects is skipped and reported.
func (r *Registry) applyAdmit(key, cfgText string, artifact *election.Compiled, report *RecoveryReport, skip func(op, key, reason string)) {
	if artifact == nil {
		skip(walOpAdmit, key, "admit record without an artifact")
		return
	}
	cfg, err := config.Unmarshal(cfgText)
	if err != nil {
		skip(walOpAdmit, key, fmt.Sprintf("parsing configuration: %v", err))
		return
	}
	d, err := election.Load(artifact, cfg)
	if err != nil {
		skip(walOpAdmit, key, fmt.Sprintf("loading artifact: %v", err))
		return
	}
	_, _ = r.install(key, d, nil) // installs journal nothing without a record
	r.artifactLoads.Add(1)
	report.Admits++
}

// walEncodeAdmit encodes one admission's journal record: the key, the
// (normalized) configuration text, and the compiled artifact. It runs on
// the builder goroutine *before* the install — Compile aliases the
// algorithm's live list memory, and once the install lands a concurrent
// evict → retire → rebuild-in-place may recycle exactly that memory. The
// install journals the pre-encoded record after the swap, preserving the
// checkpoint ordering invariant documented at the top of this file.
func (r *Registry) walEncodeAdmit(key string, d *election.Dedicated) []byte {
	return wire.AppendWALAdmitFrame(nil, &wire.WALAdmit{
		Key:      key,
		Config:   d.Config.Marshal(),
		Artifact: d.Compile(),
	})
}

// walEvictRecord encodes one eviction's journal record.
func walEvictRecord(key string) []byte {
	return wire.AppendWALEvictFrame(nil, &wire.WALEvict{Key: key})
}

// journal writes record, when non-nil, to the journal and returns its
// sequence number. install and evict call it with the shard's mutex held,
// so the journal holds each shard's mutations in the order they were
// applied; the wait for durability (walWait) runs after the mutex is
// released, so concurrent admissions still share one fsync.
func (r *Registry) journal(key string, record []byte) (uint64, error) {
	if record == nil {
		return 0, nil
	}
	if r.beforeJournal != nil {
		r.beforeJournal(key)
	}
	seq, err := r.wal.Write(record)
	if err != nil {
		r.walAppendErrs.Add(1)
	}
	return seq, err
}

// walWait waits until journal record seq is as durable as the sync policy
// asks and counts it toward the next checkpoint.
func (r *Registry) walWait(seq uint64) error {
	if err := r.wal.Wait(seq); err != nil {
		r.walAppendErrs.Add(1)
		return err
	}
	if r.checkpointDue(r.walRecords.Add(1)) {
		r.kickCheckpoint()
	}
	return nil
}

// checkpointDue decides whether n un-checkpointed journal records warrant a
// checkpoint. An explicit CheckpointRecords > 0 is a fixed threshold; a
// negative value disables the count trigger; 0 paces automatically off the
// registry's current size, keeping replay-on-crash work proportional to the
// state a checkpoint rewrites.
func (r *Registry) checkpointDue(n int64) bool {
	limit := r.walOpts.CheckpointRecords
	switch {
	case limit < 0:
		return false
	case limit == 0:
		limit = 4 * r.configCount.Load()
		if limit < 64 {
			limit = 64
		} else if limit > 8192 {
			limit = 8192
		}
	}
	return n >= limit
}

// kickCheckpoint asks the background checkpointer for a checkpoint without
// blocking; it is a no-op on a non-durable registry.
func (r *Registry) kickCheckpoint() {
	if r.checkpointKick == nil {
		return
	}
	select {
	case r.checkpointKick <- struct{}{}:
	default: // one is already queued
	}
}

// checkpointer runs checkpoints in the background, on the configured timer
// and on demand (record-count triggers, post-restore kicks), until Close.
func (r *Registry) checkpointer(every time.Duration) {
	defer r.checkpointWG.Done()
	var tick <-chan time.Time
	if every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-r.checkpointStop:
			return
		case <-r.checkpointKick:
		case <-tick:
		}
		if err := r.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
			r.checkpointErrs.Add(1)
		}
	}
}

// Checkpoint truncates the journal by snapshotting the registry: it
// rotates the journal (freezing every segment written so far), writes the
// registry snapshot into the checkpoint directory (staged; the manifest
// commits last, so a crash mid-checkpoint leaves the previous checkpoint
// intact), and only then deletes the frozen segments. Every crash window
// is covered: before the manifest commit the old checkpoint plus the full
// journal reconstruct the state, after it the new checkpoint plus an
// idempotent replay of the not-yet-deleted segments do.
//
// One checkpoint runs at a time; the background checkpointer and explicit
// callers serialize on the same lock.
func (r *Registry) Checkpoint() error {
	if r.wal == nil {
		return fmt.Errorf("service: registry has no journal (durability is off)")
	}
	r.checkpointMu.Lock()
	defer r.checkpointMu.Unlock()
	if r.isClosed() {
		return ErrClosed
	}
	start := time.Now()
	frozen, err := r.wal.Rotate()
	if err != nil {
		return fmt.Errorf("service: rotating journal: %w", err)
	}
	r.walRecords.Store(0)
	if _, err := r.Snapshot(filepath.Join(r.walOpts.Dir, CheckpointDirName)); err != nil {
		// The frozen segments stay; the journal is still complete and the
		// next checkpoint retries the same work.
		return fmt.Errorf("service: writing checkpoint: %w", err)
	}
	if err := r.wal.RemoveSegments(frozen); err != nil {
		return fmt.Errorf("service: truncating journal: %w", err)
	}
	r.checkpoints.Add(1)
	r.lastCheckpointNanos.Store(int64(time.Since(start)))
	return nil
}

// WALStats returns the journal's counters; on a non-durable registry only
// Enabled=false is set. It reads atomics only, like Len and
// AdmissionStats, so health probes never block behind journal I/O.
func (r *Registry) WALStats() WALStats {
	if r.wal == nil {
		return WALStats{}
	}
	st := r.wal.Stats()
	return WALStats{
		Enabled:                true,
		Dir:                    r.walOpts.Dir,
		Policy:                 st.Policy.String(),
		Appends:                st.Appends,
		Unsynced:               st.Unsynced,
		Syncs:                  st.Syncs,
		AppendFailures:         r.walAppendErrs.Load(),
		JournalBytes:           st.Bytes,
		Segments:               st.Segments,
		RecordsSinceCheckpoint: r.walRecords.Load(),
		Checkpoints:            r.checkpoints.Load(),
		CheckpointFailures:     r.checkpointErrs.Load(),
		LastCheckpointSeconds:  time.Duration(r.lastCheckpointNanos.Load()).Seconds(),
	}
}
