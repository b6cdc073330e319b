package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// This file implements registry snapshot and restore: a warm registry is
// persisted as one entries file holding every admitted key's journal admit
// record, tied to the keys by a manifest, and a cold registry re-admits the
// whole set through election.Load — a restart pays for parsing and loading
// artifacts, never for reclassifying, and opens one data file however many
// keys it holds.
//
// On-disk layout of a snapshot directory (manifest version 2):
//
//	manifest.json          — Manifest: version, shard count, artifact
//	                         encoding, the entries file's name, one entry
//	                         per key (its node count, and the offset and
//	                         length of its record in the entries file)
//	entries-NNNNNNNN.bin   — one wire.FrameWALAdmit frame per key (key,
//	                         configuration text, compiled artifact: the
//	                         record the journal and key migration carry),
//	                         each in the journal's record framing
//	                         (wal.AppendRecord), in sorted key order
//
// A snapshot of a given registry content is byte-stable apart from the
// entries file's generation number, which each snapshot into a directory
// advances so the manifest's rename alone commits it. Restore reads the
// entries file with the journal's damage handling (wal.ReadFile): a record
// whose CRC fails is skipped and the scan resynchronizes on the next one,
// so damage costs only the keys whose records it hit, each reported by
// key. One record is the unit `elect -compiled` runs and GET
// /v1/artifact/{key} serves; the manifest's offsets cut it out of the file.
//
// Version-1 directories, written by earlier releases, hold one artifact
// file and one configuration file per key (NNNN.artifact.bin, or
// NNNN.artifact.json in the JSON era, and NNNN.config.txt) and restore
// unchanged; the first snapshot into such a directory deletes those files.
// Earlier releases refuse a version-2 manifest by its version number.

// ManifestVersion is the snapshot format version written by Snapshot.
const ManifestVersion = 2

// SnapshotEntry is one admitted configuration as gathered from its shard:
// the key, the (normalized) configuration, and the compiled artifact of the
// dedicated algorithm serving it.
type SnapshotEntry struct {
	// Key is the registry key the configuration is admitted under.
	Key string
	// Config is the normalized configuration the entry's algorithm is
	// dedicated to.
	Config *config.Config
	// Artifact is the compiled algorithm (blueprint and leader history),
	// exactly as cmd/compile would emit it.
	Artifact *election.Compiled
}

// ManifestEntry names one snapshot entry.
type ManifestEntry struct {
	// Key is the registry key to re-admit the configuration under.
	Key string `json:"key"`
	// ConfigFile and ArtifactFile are a version-1 entry's configuration and
	// compiled-artifact files, relative to the snapshot directory.
	ConfigFile   string `json:"config_file,omitempty"`
	ArtifactFile string `json:"artifact_file,omitempty"`
	// Nodes is the configuration size (informational, for operators reading
	// the manifest).
	Nodes int `json:"nodes"`
	// Offset and Length locate a version-2 entry's wire.FrameWALAdmit frame
	// in the entries file (informational: restore scans the file, and an
	// operator can cut one key's frame out for `elect -compiled`).
	Offset int64 `json:"offset,omitempty"`
	Length int   `json:"length,omitempty"`
}

// Manifest describes a snapshot directory.
type Manifest struct {
	// Version is the snapshot format version: ManifestVersion for every
	// snapshot this release writes, 1 for earlier releases' per-key files.
	Version int `json:"version"`
	// Shards is the shard count of the registry the snapshot was taken from
	// (informational; a snapshot restores into any shard count).
	Shards int `json:"shards"`
	// Encoding records the artifact encoding the snapshot was written with:
	// "binary" for every snapshot this release writes, "json" (or absent,
	// in pre-binary manifests) for JSON-era ones. Informational: restore
	// auto-detects per file.
	Encoding string `json:"encoding,omitempty"`
	// EntriesFile is a version-2 snapshot's entries file, relative to the
	// snapshot directory.
	EntriesFile string `json:"entries_file,omitempty"`
	// Entries lists every persisted configuration, in sorted key order.
	Entries []ManifestEntry `json:"entries"`
}

// ManifestFile is the manifest's file name inside a snapshot directory.
const ManifestFile = "manifest.json"

// RestoreSkip records one manifest entry a restore could not bring back.
type RestoreSkip struct {
	// Key is the registry key of the skipped entry.
	Key string
	// Reason describes why the entry was skipped (missing file or record,
	// corrupt artifact, rejected validation, ...).
	Reason string
}

// RestoreReport summarizes one Restore.
type RestoreReport struct {
	// Entries is the number of configurations re-admitted.
	Entries int
	// Skipped lists manifest entries the restore could not bring back
	// (missing or corrupt files or records, artifacts rejected by
	// validation), in manifest order. A partially-damaged snapshot boots
	// the surviving entries instead of refusing to boot at all; callers
	// that require a complete restore must check this list.
	Skipped []RestoreSkip
}

// SnapshotEntries gathers the admitted configurations with their compiled
// artifacts, in sorted key order. It reads each shard's view once, without
// entering its worker, and compiles each entry under the entry's read lock:
// a concurrent admission of a new key lands in the snapshot iff its shard
// published it before the gather read the view, and a key evicted after
// the view was read is left out. The returned artifacts alias live
// algorithm memory; callers that consume them while admissions continue
// should encode them promptly (Snapshot additionally fences them against
// rebuild-in-place re-admissions).
func (r *Registry) SnapshotEntries() ([]SnapshotEntry, error) {
	if !r.acquire() {
		return nil, ErrClosed
	}
	defer r.release()
	var entries []SnapshotEntry
	for _, sh := range r.shards {
		for key, e := range sh.current() {
			if se, ok := e.snapshot(key); ok {
				entries = append(entries, se)
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return entries, nil
}

// Snapshot persists the registry's admitted configurations into dir (created
// if needed): one entries file holding every key's admit record, plus a
// manifest naming it and listing the keys.
//
// The manifest's rename is the commit. The entries file is written under a
// name no committed manifest uses, and it, the staged manifest and — after
// the rename — the directory are fsynced, so a crash leaves either the
// previous manifest with the files it names or the new one with its
// entries file, and a snapshot that returned survives power loss: a
// checkpoint may then delete the journal segments it covers. Once the
// manifest is committed, data files it does not name — earlier entries
// files and version-1 per-key files — are deleted (see removeOrphans).
func (r *Registry) Snapshot(dir string) (*Manifest, error) {
	// Gathered artifacts alias live algorithm memory (the lists),
	// and a rebuild-in-place admission recycles exactly that memory once
	// the algorithm is displaced. Hold the snapshot fence across gather and
	// encode so no builder rebuilds into an artifact mid-write.
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	entries, err := r.SnapshotEntries()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating snapshot directory: %w", err)
	}
	m := &Manifest{Version: ManifestVersion, Shards: len(r.shards), Encoding: "binary", EntriesFile: nextEntriesFile(dir)}
	f, err := os.OpenFile(filepath.Join(dir, m.EntriesFile), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: creating entries file: %w", err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	var rec, framed []byte
	var off int64
	for _, e := range entries {
		rec = wire.AppendWALAdmitFrame(rec[:0], &wire.WALAdmit{Key: e.Key, Config: e.Config.Marshal(), Artifact: e.Artifact})
		framed = wal.AppendRecord(framed[:0], rec)
		if _, err := w.Write(framed); err != nil {
			f.Close()
			return nil, fmt.Errorf("service: writing entries file: %w", err)
		}
		m.Entries = append(m.Entries, ManifestEntry{
			Key:    e.Key,
			Nodes:  e.Config.N(),
			Offset: off + int64(len(framed)-len(rec)),
			Length: len(rec),
		})
		off += int64(len(framed))
	}
	if err := r.closeSynced(f, w.Flush()); err != nil {
		return nil, fmt.Errorf("service: writing entries file: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("service: encoding manifest: %w", err)
	}
	staged := filepath.Join(dir, ManifestFile+".staged")
	if f, err = os.Create(staged); err != nil {
		return nil, fmt.Errorf("service: writing manifest: %w", err)
	}
	_, err = f.Write(append(data, '\n'))
	if err := r.closeSynced(f, err); err != nil {
		return nil, fmt.Errorf("service: writing manifest: %w", err)
	}
	if err := os.Rename(staged, filepath.Join(dir, ManifestFile)); err != nil {
		return nil, fmt.Errorf("service: committing manifest: %w", err)
	}
	if f, err = os.Open(dir); err == nil {
		err = r.closeSynced(f, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("service: syncing snapshot directory: %w", err)
	}
	removeOrphans(dir, m)
	return m, nil
}

// closeSynced fsyncs and closes f after a write that ended with err; it
// returns the first failure. The registry's syncHook, when set, fails the
// fsync.
func (r *Registry) closeSynced(f *os.File, err error) error {
	if err == nil && r.syncHook != nil {
		err = r.syncHook(f.Name())
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// entriesFile matches entries file names and captures the generation.
var entriesFile = regexp.MustCompile(`^entries-([0-9]{8,})\.bin$`)

// nextEntriesFile names the entries file of the next snapshot into dir: one
// generation past every entries file dir holds, so no committed manifest
// names it.
func nextEntriesFile(dir string) string {
	var gen uint64
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if sub := entriesFile.FindStringSubmatch(f.Name()); sub != nil {
			if g, err := strconv.ParseUint(sub[1], 10, 64); err == nil && g > gen {
				gen = g
			}
		}
	}
	return fmt.Sprintf("entries-%08d.bin", gen+1)
}

// snapshotDataFile matches the names of the data files a snapshot writes
// or an earlier release wrote: entries files, and version-1 per-key files
// in either artifact encoding, committed or still staged.
var snapshotDataFile = regexp.MustCompile(`^(entries-[0-9]{8,}\.bin|[0-9]{4,}\.(artifact\.bin|artifact\.json|config\.txt)(\.staged)?)$`)

// removeOrphans deletes the snapshot data files in dir that m does not
// name: earlier entries files, the per-key files of a version-1 snapshot,
// and files an interrupted snapshot left behind. Any other file in dir is
// left alone. Removal is best-effort: m is already committed, and Restore
// never reads a file the manifest does not name.
func removeOrphans(dir string, m *Manifest) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, f := range files {
		if name := f.Name(); !f.IsDir() && name != m.EntriesFile && snapshotDataFile.MatchString(name) {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// ReadManifest reads and validates the manifest of a snapshot directory, of
// either version.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("service: reading snapshot manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("service: decoding snapshot manifest: %w", err)
	}
	bare := func(f string) bool { return f != "" && f == filepath.Base(f) }
	switch m.Version {
	case 1:
	case ManifestVersion:
		if !bare(m.EntriesFile) {
			return nil, fmt.Errorf("service: snapshot manifest names an invalid entries file %q (must be a bare file name)", m.EntriesFile)
		}
	default:
		return nil, fmt.Errorf("service: snapshot manifest version %d not supported (want 1 or %d)", m.Version, ManifestVersion)
	}
	seen := make(map[string]bool, len(m.Entries))
	for _, e := range m.Entries {
		if e.Key == "" {
			return nil, fmt.Errorf("service: snapshot manifest has an entry with an empty key")
		}
		if seen[e.Key] {
			return nil, fmt.Errorf("service: snapshot manifest lists key %q twice", e.Key)
		}
		seen[e.Key] = true
		if m.Version == 1 {
			for _, f := range []string{e.ConfigFile, e.ArtifactFile} {
				if !bare(f) {
					return nil, fmt.Errorf("service: snapshot manifest entry %q names an invalid file %q (must be a bare file name)", e.Key, f)
				}
			}
		}
	}
	return &m, nil
}

// Restore re-admits every configuration of the snapshot in dir into the
// registry, loading each artifact with election.Load: the phase table is
// compiled from the artifact's lists, and an artifact that disagrees with
// its own blueprint or configuration is rejected. A manifest written by an
// earlier release may record an artifact digest per entry; Restore
// ignores it.
//
// Entries restore concurrently (one loader goroutine per core, each
// parsing and validating its artifacts off the serve path, then installing
// them on the owning shard itself), so a cold boot uses the whole machine
// without queueing through the bounded admission pipeline — a restore is
// operator-initiated and should never see ErrAdmissionBusy.
//
// Restore degrades gracefully on a partially-damaged snapshot: an entry
// whose record or files are missing or corrupt, or whose artifact fails
// validation, is skipped and recorded in the report's Skipped list while
// every undamaged entry still boots. Restore returns an error only when the
// snapshot as a whole is unusable (unreadable or invalid manifest) or the
// registry is closed; callers that require a complete restore must check
// report.Skipped.
func (r *Registry) Restore(dir string) (*RestoreReport, error) {
	if !r.acquire() {
		return nil, ErrClosed
	}
	m, err := ReadManifest(dir)
	if err != nil {
		r.release()
		return nil, err
	}
	read := entryReader(dir, m)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(m.Entries) {
		workers = len(m.Entries)
	}
	if workers < 1 {
		workers = 1
	}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		report  RestoreReport
		skipped = make(map[int]RestoreSkip)
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(m.Entries) {
					return
				}
				key := m.Entries[i].Key
				cfgText, artifact, err := read(i)
				if err == nil {
					err = r.restoreEntry(key, cfgText, artifact)
				}
				mu.Lock()
				if err != nil {
					skipped[i] = RestoreSkip{Key: key, Reason: fmt.Sprintf("service: restoring %q: %v", key, err)}
				} else {
					report.Entries++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i := range m.Entries {
		if s, ok := skipped[i]; ok {
			report.Skipped = append(report.Skipped, s)
		}
	}
	r.release()
	// New state entered the registry outside the admission pipeline; make
	// it durable if a journal is attached (no-op otherwise). The kick is
	// asynchronous, so a restore during recovery (before the journal opens)
	// stays inert.
	r.kickCheckpoint()
	return &report, nil
}

// entryReader returns the reader of manifest entry i, which returns the
// entry's configuration text and compiled artifact. A version-2 snapshot's
// entries file is scanned here, once, and indexed by key (the first intact
// record of a key counts; records of keys the manifest does not list are
// ignored); the reader decodes entry i's record. A version-1 entry's reader
// reads its two files.
func entryReader(dir string, m *Manifest) func(i int) (string, *election.Compiled, error) {
	if m.Version == 1 {
		return func(i int) (string, *election.Compiled, error) {
			me := m.Entries[i]
			cfgData, err := os.ReadFile(filepath.Join(dir, me.ConfigFile))
			if err != nil {
				return "", nil, err
			}
			artData, err := os.ReadFile(filepath.Join(dir, me.ArtifactFile))
			if err != nil {
				return "", nil, err
			}
			// Auto-detect the artifact's encoding from its leading bytes:
			// binary wire frames and JSON-era files restore interchangeably.
			artifact, err := wire.DecodeArtifactAuto(artData)
			return string(cfgData), artifact, err
		}
	}
	records := make(map[string][]byte, len(m.Entries))
	fr, err := wal.ReadFile(filepath.Join(dir, m.EntriesFile), func(payload []byte) error {
		if typ, body, rest, err := wire.DecodeFrame(payload); err == nil && len(rest) == 0 && typ == wire.FrameWALAdmit {
			if key, ok := wire.PeekWALKey(typ, body); ok && records[key] == nil {
				records[key] = body
			}
		}
		return nil
	})
	if err == nil && !fr.Clean() {
		err = fmt.Errorf("no intact record in %s (first of %d faults: %v)", m.EntriesFile, len(fr.Faults), fr.Faults[0])
	} else if err == nil {
		err = fmt.Errorf("no admit record in %s", m.EntriesFile)
	}
	return func(i int) (string, *election.Compiled, error) {
		body := records[m.Entries[i].Key]
		if body == nil {
			return "", nil, err
		}
		var rec wire.WALAdmit
		if err := rec.DecodeFrom(body); err != nil {
			return "", nil, err
		}
		if rec.Artifact == nil {
			return "", nil, errors.New("admit record without an artifact")
		}
		return rec.Config, rec.Artifact, nil
	}
}

// restoreEntry parses, loads and installs one entry on the calling restore
// goroutine. The caller holds a lifecycle acquire slot.
func (r *Registry) restoreEntry(key, cfgText string, artifact *election.Compiled) error {
	cfg, err := config.Unmarshal(cfgText)
	if err != nil {
		return err
	}
	d, err := election.Load(artifact, cfg)
	if err != nil {
		r.shardFor(key).buildFails.Add(1)
		return err
	}
	_, _ = r.install(key, d, nil) // installs journal nothing without a record
	r.artifactLoads.Add(1)
	return nil
}

// snapshot compiles the entry's algorithm under its read lock, like the
// elections running beside it; ok is false for an entry an eviction
// tombstoned.
func (e *entry) snapshot(key string) (SnapshotEntry, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.d == nil {
		return SnapshotEntry{}, false
	}
	return SnapshotEntry{Key: key, Config: e.d.Config, Artifact: e.d.Compile()}, true
}

// ExportArtifact compiles the configuration admitted under key and encodes
// it as one wire.FrameWALAdmit frame — key, configuration text, compiled
// artifact — the exact unit fleet key migration ships between nodes (GET
// /v1/artifact/{key} serves it, POST /v1/admit/artifact consumes it through
// RegisterCompiled, and a journal replay would accept it verbatim). The frame is encoded under the snapshot fence: the gathered
// artifact aliases live algorithm memory, and the fence keeps a concurrent
// rebuild-in-place admission from recycling that memory mid-encode. It
// returns ErrUnknownKey (wrapped) for an unregistered key.
func (r *Registry) ExportArtifact(key string) ([]byte, error) {
	if !r.acquire() {
		return nil, ErrClosed
	}
	defer r.release()
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	var e SnapshotEntry
	ok := false
	if en := r.shardFor(key).current()[key]; en != nil {
		e, ok = en.snapshot(key)
	}
	if !ok {
		return nil, fmt.Errorf("%w: no configuration registered under %q", ErrUnknownKey, key)
	}
	return wire.AppendWALAdmitFrame(nil, &wire.WALAdmit{
		Key:      e.Key,
		Config:   e.Config.Marshal(),
		Artifact: e.Artifact,
	}), nil
}
