// Package wal implements the framed append-only journal underneath the
// durable election registry: a directory of numbered segment files holding
// length-prefixed, CRC-protected records, written by one process and
// replayed at the next boot.
//
// The package deliberately knows nothing about what a record *means* — a
// payload is an opaque byte slice; internal/service defines the admission
// and eviction encodings on top. What it does own is everything that makes
// a journal trustworthy after a crash:
//
//   - Framing. Every record is written as a fixed 12-byte header (magic,
//     payload length, CRC-32C of the payload) followed by the payload.
//     The magic marker is what makes resynchronization after a corrupt
//     record possible; the CRC is what detects the corruption.
//   - Sync policies. Write puts a record in the journal's order, and Wait
//     makes it as durable as the policy asks: SyncAlways fsyncs before
//     Wait returns (an acknowledged record survives power loss),
//     SyncBatch writes through to the OS on every Write (an acknowledged
//     record survives a process kill) and fsyncs on a short timer
//     (bounded loss on power failure), SyncOff buffers in process memory
//     (fastest; a kill can lose the buffered tail, which replay then
//     truncates).
//   - Segments. The log is a sequence of journal-NNNNNNNN.wal files, each
//     opening with an 8-byte header (magic, format version byte, padding;
//     see SegmentVersion — version-1 segments predate the header and are
//     still replayed). Rotate freezes the active segment and opens the next
//     one, which is how checkpointing truncates the journal: snapshot the
//     state, then delete the frozen segments the snapshot covers.
//   - Replay. Replay walks the segments in order and delivers every intact
//     payload. Faults do not abort the boot: a torn or corrupt tail is
//     physically truncated, a corrupt record mid-log is skipped by scanning
//     forward to the next verifiable frame, and every such decision is
//     returned as a per-record fault report. ReadFile reads one file in the
//     same framing (AppendRecord writes it) with the same damage handling,
//     but never truncates: internal/service keeps a snapshot's entries in
//     such a file.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// frameMagic starts every record frame; replay resynchronizes on it
	// after a corrupt record.
	frameMagic uint32 = 0x314C4157 // "WAL1" when read as little-endian bytes

	// headerSize is magic + payload length + payload CRC, 4 bytes each.
	headerSize = 12

	// MaxRecord bounds one payload; a header claiming more is corruption,
	// not a record (it also caps what replay will buffer).
	MaxRecord = 1 << 30

	// segmentMagic starts every segment written at SegmentVersion >= 2; the
	// first journal format wrote record frames from byte 0 with no segment
	// header, and replay still accepts those segments as version 1.
	segmentMagic uint32 = 0x324C4157 // "WAL2" when read as little-endian bytes

	// segmentHeaderSize is segment magic + version byte + 3 reserved zero
	// bytes.
	segmentHeaderSize = 8

	// SegmentVersion is the segment format this package writes. Version 2
	// introduced the segment header itself, alongside binary
	// (internal/wire-framed) record payloads in internal/service; the record
	// framing is unchanged, so either version's records replay through the
	// same scanner. Replay skips (and reports) segments from a *newer*
	// version instead of guessing at their contents.
	SegmentVersion = 2
)

// castagnoli is the CRC-32C table (the polynomial with hardware support on
// both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// SyncPolicy selects how durable an acknowledged record is.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs before Wait returns: an acknowledged record
	// survives power loss. One fsync may cover several concurrent waiters
	// (group commit), but none of them returns before its record is on
	// stable storage.
	SyncAlways SyncPolicy = iota
	// SyncBatch writes every record through to the operating system before
	// Write returns (an acknowledged record survives kill -9) and fsyncs
	// on a short timer, so power loss can cost at most the last batch
	// interval of records.
	SyncBatch
	// SyncOff buffers records in process memory and lets the buffer flush
	// when it fills or the log closes. Fastest, and a crash can lose the
	// buffered tail — replay truncates whatever partial frame remains.
	SyncOff
)

// String returns the flag-form name of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy parses the flag-form name of a policy ("always", "batch",
// "off").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, batch or off)", s)
	}
}

// Options configure a Log.
type Options struct {
	// Sync is the append durability policy; the zero value is SyncAlways.
	Sync SyncPolicy
}

// batchInterval is the fsync cadence under SyncBatch.
const batchInterval = 5 * time.Millisecond

// Stats is a point-in-time snapshot of the log's counters. Every field is
// served from atomics, so reading stats never contends with appends or
// fsyncs — health probes stay responsive while the journal is busy.
type Stats struct {
	// Policy is the configured sync policy.
	Policy SyncPolicy
	// Appends counts records appended since Open.
	Appends uint64
	// Synced counts appended records known to be on stable storage.
	Synced uint64
	// Unsynced is the WAL lag: records appended but not yet fsynced
	// (Appends - Synced). Under SyncAlways it is transiently 0 or the
	// in-flight group; under SyncOff it grows without bound.
	Unsynced uint64
	// Syncs counts fsync calls.
	Syncs uint64
	// Bytes is the total size of the journal across all segments,
	// including records inherited from previous boots.
	Bytes int64
	// Segments is the number of segment files, including the active one.
	Segments int
}

// Log is an append-only journal over a directory of segment files. Write,
// Wait, Rotate, Stats and Close are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	// mu serializes the write side: appends, rotation, close.
	mu      sync.Mutex
	f       *os.File
	seq     uint64
	scratch []byte
	frozen  []string // full paths of non-active segments, oldest first
	buf     []byte   // SyncOff: process-memory buffer
	closed  bool

	// syncMu serializes fsyncs (group commit) and orders them against
	// rotation; lock order is syncMu before mu.
	syncMu sync.Mutex

	appends  atomic.Uint64
	flushed  atomic.Uint64 // records written through to the OS
	synced   atomic.Uint64
	syncs    atomic.Uint64
	bytes    atomic.Int64
	segments atomic.Int32

	stop     chan struct{}
	stopOnce sync.Once
	syncerWG sync.WaitGroup
}

// segmentName formats the file name of segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("journal-%08d.wal", seq) }

// segmentSeq parses the sequence number out of a segment file name; ok is
// false for any other name. It avoids fmt.Sscanf, whose pooled scanner
// state a garbage collection can drop, which made the allocations of a
// replay vary with GC timing.
func segmentSeq(name string) (seq uint64, ok bool) {
	digits, ok := strings.CutPrefix(name, "journal-")
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, ".wal"); !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	return seq, err == nil
}

// listSegments returns the journal segments in dir, ordered by sequence; a
// missing dir holds none.
func listSegments(dir string) (paths []string, seqs []uint64, err error) {
	names, err := readDirNames(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: scanning %s: %w", dir, err)
	}
	type seg struct {
		path string
		seq  uint64
	}
	var segs []seg
	for _, name := range names {
		seq, ok := segmentSeq(name)
		if !ok {
			continue // not a segment; leave foreign files alone
		}
		segs = append(segs, seg{filepath.Join(dir, name), seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for _, s := range segs {
		paths = append(paths, s.path)
		seqs = append(seqs, s.seq)
	}
	return paths, seqs, nil
}

// Open opens (creating if necessary) the journal in dir and starts a fresh
// active segment after any existing ones. It never appends to a segment
// from a previous boot: the old segments stay frozen exactly as replay left
// them, so a recovery that was interrupted mid-way changes nothing.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	paths, seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var next uint64 = 1
	var base int64
	for i, p := range paths {
		if info, err := os.Stat(p); err == nil {
			base += info.Size()
		}
		if seqs[i] >= next {
			next = seqs[i] + 1
		}
	}
	l := &Log{dir: dir, opts: opts, seq: next, frozen: paths, stop: make(chan struct{})}
	l.bytes.Store(base)
	l.segments.Store(int32(len(paths) + 1))
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncBatch {
		l.syncerWG.Add(1)
		go l.syncer()
	}
	return l, nil
}

// openSegment creates the active segment file l.seq and writes its header;
// the caller holds mu (or is Open, before the log escapes).
func (l *Log) openSegment() error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [segmentHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:], segmentMagic)
	hdr[4] = SegmentVersion
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	l.f = f
	l.bytes.Add(segmentHeaderSize)
	return nil
}

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// Write writes one record and returns its sequence number, which Wait
// takes. Under SyncAlways and SyncBatch the record is in the operating
// system when Write returns, under SyncOff it may still sit in the process
// buffer. Write is safe for concurrent use, and records land in the order
// their Writes ran: a caller that holds its own lock across Write journals
// its mutations in that lock's order.
func (l *Log) Write(payload []byte) (uint64, error) {
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), MaxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	hdr := appendHeader(l.scratch[:0], payload)
	l.scratch = hdr
	var err error
	if l.opts.Sync == SyncOff {
		// Buffer in process memory; flush when the buffer is large enough
		// that the write amortizes.
		l.buf = append(l.buf, hdr...)
		l.buf = append(l.buf, payload...)
		if len(l.buf) >= 1<<16 {
			err = l.flushLocked()
		}
	} else {
		_, err = l.f.Write(hdr)
		if err == nil {
			_, err = l.f.Write(payload)
		}
	}
	if err != nil {
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	seq := l.appends.Add(1)
	l.bytes.Add(int64(headerSize + len(payload)))
	if l.opts.Sync != SyncOff {
		l.flushed.Store(seq)
	}
	return seq, nil
}

// Wait applies the sync policy to record seq of Write: under SyncAlways it
// returns once the record is on stable storage, and under SyncBatch and
// SyncOff at once. Waiters group-commit: one fsync covers every record
// written before it, so callers that write under a lock of their own and
// wait after releasing it share their fsyncs.
func (l *Log) Wait(seq uint64) error {
	if l.opts.Sync != SyncAlways {
		return nil
	}
	return l.syncTo(seq)
}

// flushLocked writes the SyncOff buffer through to the OS; caller holds mu.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		l.flushed.Store(l.appends.Load())
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	l.flushed.Store(l.appends.Load())
	return nil
}

// syncTo ensures every record up to seq is fsynced, group-committing with
// concurrent callers: whoever holds syncMu syncs for everyone flushed so
// far, and late arrivals find their record already covered.
func (l *Log) syncTo(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= seq {
		return nil
	}
	target := l.flushed.Load()
	l.mu.Lock()
	f, closed := l.f, l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs.Add(1)
	if target > l.synced.Load() {
		l.synced.Store(target)
	}
	return nil
}

// Sync flushes and fsyncs everything appended so far, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	err := l.flushLocked()
	seq := l.appends.Load()
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: flushing: %w", err)
	}
	return l.syncTo(seq)
}

// syncer is the SyncBatch background goroutine: it fsyncs on a timer
// whenever records are flushed but not yet durable.
func (l *Log) syncer() {
	defer l.syncerWG.Done()
	t := time.NewTicker(batchInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			if target := l.flushed.Load(); target > l.synced.Load() {
				_ = l.syncTo(target) // an fsync error here resurfaces on the next Wait/Sync/Close
			}
		}
	}
}

// Rotate freezes the active segment (flushed, fsynced, closed) and opens
// the next one. It returns the full paths of every frozen segment, oldest
// first — the set a checkpoint may delete once its snapshot commits.
func (l *Log) Rotate() ([]string, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		return nil, fmt.Errorf("wal: flushing before rotate: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return nil, fmt.Errorf("wal: fsync before rotate: %w", err)
	}
	l.syncs.Add(1)
	l.synced.Store(l.appends.Load())
	old := l.f.Name()
	if err := l.f.Close(); err != nil {
		return nil, fmt.Errorf("wal: closing segment: %w", err)
	}
	l.frozen = append(l.frozen, old)
	l.seq++
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	l.segments.Store(int32(len(l.frozen) + 1))
	frozen := make([]string, len(l.frozen))
	copy(frozen, l.frozen)
	return frozen, nil
}

// RemoveSegments deletes frozen segments (paths as returned by Rotate) and
// drops them from the log's accounting. Removing the active segment is an
// error; missing files are ignored (a retried checkpoint may have removed
// them already).
func (l *Log) RemoveSegments(paths []string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	remove := make(map[string]bool, len(paths))
	for _, p := range paths {
		remove[p] = true
	}
	if l.f != nil && remove[l.f.Name()] {
		return fmt.Errorf("wal: refusing to remove the active segment %s", l.f.Name())
	}
	kept := l.frozen[:0]
	for _, p := range l.frozen {
		if !remove[p] {
			kept = append(kept, p)
			continue
		}
		if info, err := os.Stat(p); err == nil {
			l.bytes.Add(-info.Size())
		}
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: removing segment: %w", err)
		}
	}
	l.frozen = kept
	l.segments.Store(int32(len(l.frozen) + 1))
	return nil
}

// Stats returns the log's counters; it reads atomics only.
func (l *Log) Stats() Stats {
	appends := l.appends.Load()
	synced := l.synced.Load()
	if synced > appends {
		synced = appends
	}
	return Stats{
		Policy:   l.opts.Sync,
		Appends:  appends,
		Synced:   synced,
		Unsynced: appends - synced,
		Syncs:    l.syncs.Load(),
		Bytes:    l.bytes.Load(),
		Segments: int(l.segments.Load()),
	}
}

// Close flushes, fsyncs and closes the active segment. Closing twice is
// safe.
func (l *Log) Close() error {
	l.stopOnce.Do(func() { close(l.stop) })
	l.syncerWG.Wait()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.flushLocked(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: flushing on close: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: fsync on close: %w", err)
	}
	l.synced.Store(l.appends.Load())
	return l.f.Close()
}
