package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

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
//	checkpoint: rotate the journal, Snapshot the registry (one entries
//	            file, fsynced, then the manifest committed by rename and
//	            the directory fsynced), delete the frozen segments
//	boot:       load the checkpoint's entries and the journal's records as
//	            one run, each key from its newest record that applies
//	            (recovery.go; tolerating per-entry damage and torn/corrupt
//	            records), then open a fresh segment for new appends
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
// acknowledged state. The snapshot is on stable storage before any segment
// it covers is deleted, so under wal.SyncAlways a checkpoint never leaves
// an acknowledged record only in the page cache.
//
// Journal records and checkpoint entries are written as binary wire
// frames. Recovery sniffs each record and artifact file, so a directory
// written by an older release in JSON (records, checkpoint, or both) boots
// unchanged, and its next checkpoint rewrites it as binary.

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
	// Index is the record's position among the journal's intact records
	// (0-based).
	Index int
	// Op and Key identify the record when its envelope decoded.
	Op, Key string
	// Reason describes the failure.
	Reason string
}

// RecoveryReport summarizes what Open brought back.
type RecoveryReport struct {
	// CheckpointRestored reports whether a checkpoint snapshot existed and
	// was read.
	CheckpointRestored bool
	// Checkpoint is the restore report of the checkpoint (zero when none
	// existed): Entries counts the entries that set their key's state, and
	// Skipped carries per-entry damage. An entry a newer journal record
	// supersedes is never read, so it is in neither, unless its record is
	// missing from the entries file.
	Checkpoint RestoreReport
	// Journal is the framing-level replay report: segments visited, intact
	// records, torn tails truncated, corrupt records resynchronized over.
	Journal *wal.Report
	// Admits and Evicts count journal records applied.
	Admits, Evicts int
	// Compacted counts journal records recovery passed over because a later
	// record of the same key was applied: admits replaced by a later admit
	// or removed by a later evict, whose artifacts are never decoded,
	// validated or installed, and evicts a later admit undid. Compaction is
	// an optimization, not damage — it leaves Clean() untouched.
	Compacted int
	// Skipped lists journal records that were intact at the framing level
	// but could not be applied (undecodable payload, artifact rejected by
	// validation, unknown op), in journal order. Recovery tries a key's
	// records newest first and stops at the first that applies, so a
	// damaged record that a later one of its key supersedes is compacted,
	// never tried, and not listed.
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

// Open starts a durable registry: it loads the checkpoint snapshot in
// opts.WAL.Dir (if one exists) and the admission journal as one run of
// records (see recovery.go), each surviving key once through
// election.Load, opens a fresh journal segment for new appends, and starts
// the background checkpointer. Recovery tolerates damage instead of
// refusing to boot — torn tails are truncated, corrupt records and damaged
// checkpoint entries are skipped — and every such decision is in the
// returned report; callers that require a loss-free boot must check
// report.Clean().
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
	var rc recovery
	ckDir := filepath.Join(w.Dir, CheckpointDirName)
	if _, err := os.Stat(filepath.Join(ckDir, ManifestFile)); err == nil {
		m, err := ReadManifest(ckDir)
		if err != nil {
			r.Close()
			return nil, nil, fmt.Errorf("service: restoring checkpoint: %w", err)
		}
		rc.addSnapshot(ckDir, m)
		report.CheckpointRestored = true
	}
	jr, err := rc.addJournal(w.Dir)
	report.Journal = jr
	if err != nil {
		r.Close()
		return nil, nil, fmt.Errorf("service: replaying journal: %w", err)
	}
	r.loadRun(&rc)
	rc.account(report)
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
// registry snapshot into the checkpoint directory (the manifest's rename
// commits it, so a crash mid-checkpoint leaves the previous checkpoint
// intact), and only once the snapshot is fsynced deletes the frozen
// segments. Every crash window is covered: before the manifest commit the
// old checkpoint plus the full journal reconstruct the state, after it the
// new checkpoint plus an idempotent replay of the not-yet-deleted segments
// do. A snapshot that fails, its fsyncs included, keeps the frozen
// segments, and the next checkpoint retries.
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
