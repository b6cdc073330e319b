package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/wire"
)

// This file implements registry snapshot and restore: a warm registry is
// persisted as one compiled artifact plus one configuration file per
// admitted key, tied together by a manifest, and a cold registry re-admits
// the whole set through election.Load — a restart pays for parsing and
// loading artifacts, never for reclassifying.
//
// On-disk layout of a snapshot directory:
//
//	manifest.json        — Manifest: version, shard count, artifact
//	                       encoding, one entry per key
//	NNNN.artifact.bin    — one wire.FrameArtifact frame (CRC-checked,
//	                       several-fold smaller than the JSON form; usable
//	                       with `elect -compiled`)
//	NNNN.config.txt      — the configuration in the text format of
//	                       internal/config (usable with `elect -config`)
//
// Files are numbered in sorted key order, so a snapshot of a given
// registry content is byte-stable; keys themselves live only inside the
// manifest (they are arbitrary strings and do not make safe file names).
// Snapshot always writes binary frames. Older releases could also write
// NNNN.artifact.json files (election.Compiled as the JSON cmd/compile
// emits); Restore auto-detects each artifact file's encoding from its
// leading bytes (wire magic vs '{'), so JSON-era snapshot directories keep
// restoring unchanged, and the next Snapshot into such a directory
// replaces their JSON files with binary ones.

// ManifestVersion is the snapshot format version written by Snapshot.
const ManifestVersion = 1

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

// ManifestEntry locates one snapshot entry on disk.
type ManifestEntry struct {
	// Key is the registry key to re-admit the configuration under.
	Key string `json:"key"`
	// ConfigFile is the configuration file, relative to the snapshot
	// directory.
	ConfigFile string `json:"config_file"`
	// ArtifactFile is the compiled-artifact file, relative to the snapshot
	// directory.
	ArtifactFile string `json:"artifact_file"`
	// Nodes is the configuration size (informational, for operators reading
	// the manifest).
	Nodes int `json:"nodes"`
}

// Manifest describes a snapshot directory.
type Manifest struct {
	// Version is the snapshot format version (ManifestVersion).
	Version int `json:"version"`
	// Shards is the shard count of the registry the snapshot was taken from
	// (informational; a snapshot restores into any shard count).
	Shards int `json:"shards"`
	// Encoding records the artifact encoding the snapshot was written with:
	// "binary" for every snapshot this release writes, "json" (or absent,
	// in pre-binary manifests) for JSON-era ones. Informational: restore
	// auto-detects per file.
	Encoding string `json:"encoding,omitempty"`
	// Entries lists every persisted configuration, in sorted key order.
	Entries []ManifestEntry `json:"entries"`
}

// ManifestFile is the manifest's file name inside a snapshot directory.
const ManifestFile = "manifest.json"

// RestoreSkip records one manifest entry a restore could not bring back.
type RestoreSkip struct {
	// Key is the registry key of the skipped entry.
	Key string
	// Reason describes why the entry was skipped (missing file, corrupt
	// artifact, rejected validation, ...).
	Reason string
}

// RestoreReport summarizes one Restore.
type RestoreReport struct {
	// Entries is the number of configurations re-admitted.
	Entries int
	// Skipped lists manifest entries the restore could not bring back
	// (missing or corrupt files, artifacts rejected by validation), in
	// manifest order. A partially-damaged snapshot boots the surviving
	// entries instead of refusing to boot at all; callers that require a
	// complete restore must check this list.
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
// if needed): one compiled artifact and one configuration file per key, plus
// a manifest recording the keys.
//
// The write is staged so an interrupted snapshot can never produce a
// manifest that names the wrong data: every data file is first written
// under a temporary name (leaving a previous snapshot in dir fully
// intact), then the previous manifest is removed, the data files are
// renamed into place, and the new manifest is committed last via rename.
// A crash therefore leaves either the old snapshot, or a directory whose
// missing manifest makes Restore fail loudly — never a manifest pointing
// at another snapshot's files. Once the manifest is committed, the data
// files of earlier snapshots that it no longer lists are deleted (see
// removeOrphans).
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
	// Stage: write all data files under temporary names.
	const stageSuffix = ".staged"
	m := &Manifest{Version: ManifestVersion, Shards: len(r.shards), Encoding: "binary"}
	for i, e := range entries {
		me := ManifestEntry{
			Key:          e.Key,
			ConfigFile:   fmt.Sprintf("%04d.config.txt", i),
			ArtifactFile: fmt.Sprintf("%04d.artifact.bin", i),
			Nodes:        e.Config.N(),
		}
		data := wire.AppendArtifactFrame(nil, e.Artifact)
		if err := os.WriteFile(filepath.Join(dir, me.ArtifactFile+stageSuffix), data, 0o644); err != nil {
			return nil, fmt.Errorf("service: writing artifact for %q: %w", e.Key, err)
		}
		if err := os.WriteFile(filepath.Join(dir, me.ConfigFile+stageSuffix), []byte(e.Config.Marshal()), 0o644); err != nil {
			return nil, fmt.Errorf("service: writing configuration for %q: %w", e.Key, err)
		}
		m.Entries = append(m.Entries, me)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("service: encoding manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile+stageSuffix), append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("service: writing manifest: %w", err)
	}
	// Commit: invalidate the previous snapshot, move the staged files into
	// place, and publish the new manifest last.
	if err := os.Remove(filepath.Join(dir, ManifestFile)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("service: removing previous manifest: %w", err)
	}
	for _, me := range m.Entries {
		for _, f := range []string{me.ArtifactFile, me.ConfigFile} {
			if err := os.Rename(filepath.Join(dir, f+stageSuffix), filepath.Join(dir, f)); err != nil {
				return nil, fmt.Errorf("service: committing %s: %w", f, err)
			}
		}
	}
	if err := os.Rename(filepath.Join(dir, ManifestFile+stageSuffix), filepath.Join(dir, ManifestFile)); err != nil {
		return nil, fmt.Errorf("service: committing manifest: %w", err)
	}
	removeOrphans(dir, m)
	return m, nil
}

// snapshotDataFile matches the names of the data files a snapshot writes,
// in either artifact encoding, committed or still staged.
var snapshotDataFile = regexp.MustCompile(`^[0-9]{4,}\.(artifact\.bin|artifact\.json|config\.txt)(\.staged)?$`)

// removeOrphans deletes the snapshot data files in dir that m does not
// list: files of an earlier, larger snapshot, JSON artifacts a binary
// snapshot superseded, and files an interrupted snapshot left staged. Any
// other file in dir is left alone. Removal is best-effort: m is already
// committed, and Restore never reads a file the manifest does not name.
func removeOrphans(dir string, m *Manifest) {
	listed := make(map[string]bool, 2*len(m.Entries))
	for _, e := range m.Entries {
		listed[e.ArtifactFile] = true
		listed[e.ConfigFile] = true
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, f := range files {
		if name := f.Name(); !f.IsDir() && !listed[name] && snapshotDataFile.MatchString(name) {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// ReadManifest reads and validates the manifest of a snapshot directory.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("service: reading snapshot manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("service: decoding snapshot manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("service: snapshot manifest version %d not supported (want %d)", m.Version, ManifestVersion)
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
		for _, f := range []string{e.ConfigFile, e.ArtifactFile} {
			if f == "" || f != filepath.Base(f) {
				return nil, fmt.Errorf("service: snapshot manifest entry %q names an invalid file %q (must be a bare file name)", e.Key, f)
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
// whose files are missing or corrupt, or whose artifact fails validation,
// is skipped and recorded in the report's Skipped list while every
// undamaged entry still boots. Restore returns an error only when the
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
				err := r.restoreEntry(dir, m.Entries[i])
				mu.Lock()
				if err != nil {
					skipped[i] = RestoreSkip{Key: m.Entries[i].Key, Reason: err.Error()}
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

// restoreEntry parses, loads and installs one manifest entry on the
// calling restore goroutine. The caller holds a lifecycle acquire slot.
func (r *Registry) restoreEntry(dir string, me ManifestEntry) error {
	cfgData, err := os.ReadFile(filepath.Join(dir, me.ConfigFile))
	if err != nil {
		return fmt.Errorf("service: restoring %q: %w", me.Key, err)
	}
	cfg, err := config.Unmarshal(string(cfgData))
	if err != nil {
		return fmt.Errorf("service: restoring %q: %w", me.Key, err)
	}
	artData, err := os.ReadFile(filepath.Join(dir, me.ArtifactFile))
	if err != nil {
		return fmt.Errorf("service: restoring %q: %w", me.Key, err)
	}
	// Auto-detect the artifact's encoding from its leading bytes: binary
	// wire frames and JSON-era files restore interchangeably.
	artifact, err := wire.DecodeArtifactAuto(artData)
	if err != nil {
		return fmt.Errorf("service: restoring %q: %w", me.Key, err)
	}
	d, err := election.Load(artifact, cfg)
	if err != nil {
		r.shardFor(me.Key).buildFails.Add(1)
		return fmt.Errorf("service: restoring %q: %w", me.Key, err)
	}
	_, _ = r.install(me.Key, d, nil) // installs journal nothing without a record
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
