package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/radio"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// snapshotRecords reads a version-2 snapshot: its manifest, and the admit
// records of its entries file in file order.
func snapshotRecords(t *testing.T, dir string) (*Manifest, []wire.WALAdmit) {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != ManifestVersion {
		t.Fatalf("manifest version %d, want %d", m.Version, ManifestVersion)
	}
	var recs []wire.WALAdmit
	report, err := wal.ReadFile(filepath.Join(dir, m.EntriesFile), func(payload []byte) error {
		typ, body, rest, err := wire.DecodeFrame(payload)
		if err != nil || typ != wire.FrameWALAdmit || len(rest) != 0 {
			t.Fatalf("entries file record: %v %v %d trailing bytes", typ, err, len(rest))
		}
		var rec wire.WALAdmit
		if err := rec.DecodeFrom(body); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil || !report.Clean() {
		t.Fatalf("reading %s: %+v, %v", m.EntriesFile, report, err)
	}
	return m, recs
}

// rewriteRecords rewrites a version-2 snapshot's entries file with edit
// applied to each record; a record edit reports false is left out. Records
// are re-framed with valid CRCs, so only Load and the parsers see the edit.
func rewriteRecords(t *testing.T, dir string, edit func(rec *wire.WALAdmit) bool) {
	t.Helper()
	m, recs := snapshotRecords(t, dir)
	var data []byte
	for i := range recs {
		if edit(&recs[i]) {
			data = wal.AppendRecord(data, wire.AppendWALAdmitFrame(nil, &recs[i]))
		}
	}
	if err := os.WriteFile(filepath.Join(dir, m.EntriesFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeV1Snapshot writes r's entries into dir as a version-1 snapshot, the
// layout earlier releases wrote: one NNNN.artifact.bin frame and one
// NNNN.config.txt per key, in sorted key order, and a manifest naming them.
func writeV1Snapshot(t *testing.T, r *Registry, dir string) *Manifest {
	t.Helper()
	entries, err := r.snapshotEntries()
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Version: 1, Shards: len(r.shards), Encoding: "binary"}
	for i, e := range entries {
		me := ManifestEntry{
			Key:          e.Key,
			ConfigFile:   fmt.Sprintf("%04d.config.txt", i),
			ArtifactFile: fmt.Sprintf("%04d.artifact.bin", i),
			Nodes:        e.Config.N(),
		}
		if err := os.WriteFile(filepath.Join(dir, me.ArtifactFile), wire.AppendArtifactFrame(nil, e.Artifact), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, me.ConfigFile), []byte(e.Config.Marshal()), 0o644); err != nil {
			t.Fatal(err)
		}
		m.Entries = append(m.Entries, me)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSnapshotRestoreRoundTrip is the snapshot acceptance check: snapshot a
// populated registry, restore into a fresh one, and assert the key set and
// the election outcomes survive bit-identically — the latter checked
// against direct Dedicated elections. The snapshot is one entries file
// whose records the manifest locates, and neither its artifacts nor the
// manifest carry a phase table or a digest.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := newTestRegistry(t, 3)
	manifest, err := src.Snapshot(dir)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(manifest.Entries) != len(testConfigs()) {
		t.Fatalf("manifest has %d entries, want %d", len(manifest.Entries), len(testConfigs()))
	}
	// Keys must cover the registry, each manifest entry must locate its
	// key's record, and no artifact carries a table or a digest.
	keys := map[string]bool{}
	_, recs := snapshotRecords(t, dir)
	data, err := os.ReadFile(filepath.Join(dir, manifest.EntriesFile))
	if err != nil || len(recs) != len(manifest.Entries) {
		t.Fatalf("%d records for %d manifest entries (%v)", len(recs), len(manifest.Entries), err)
	}
	for i, e := range manifest.Entries {
		keys[e.Key] = true
		rec := recs[i]
		if rec.Key != e.Key || rec.Artifact == nil {
			t.Fatalf("record %d is %q (artifact %v), manifest entry %q", i, rec.Key, rec.Artifact != nil, e.Key)
		}
		if frame := data[e.Offset : e.Offset+int64(e.Length)]; string(frame) != string(wire.AppendWALAdmitFrame(nil, &rec)) {
			t.Fatalf("manifest offset %d length %d does not locate %q's frame", e.Offset, e.Length, e.Key)
		}
		if rec.Artifact.PhaseTable != nil || rec.Artifact.ArtifactDigest != "" {
			t.Fatalf("%s's artifact carries a phase table or the digest %q", e.Key, rec.Artifact.ArtifactDigest)
		}
	}
	if raw, err := os.ReadFile(filepath.Join(dir, ManifestFile)); err != nil || strings.Contains(string(raw), "digest") {
		t.Fatalf("manifest records a digest (%v):\n%s", err, raw)
	}
	for key := range testConfigs() {
		if !keys[key] {
			t.Fatalf("manifest is missing key %q", key)
		}
	}

	// Restore into a fresh registry of a different shard count: the whole
	// set must come back, each entry an artifact load.
	dst := New(Options{Shards: 2})
	t.Cleanup(dst.Close)
	report, err := dst.Restore(dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if report.Entries != len(manifest.Entries) || len(report.Skipped) != 0 {
		t.Fatalf("restore report %+v, want all %d entries", report, len(manifest.Entries))
	}
	if loads := dst.AdmissionStats().ArtifactLoads; loads != int64(report.Entries) {
		t.Fatalf("ArtifactLoads = %d after restoring %d entries", loads, report.Entries)
	}
	if dst.Len() != len(testConfigs()) {
		t.Fatalf("restored registry has %d configs, want %d", dst.Len(), len(testConfigs()))
	}

	// Served outcomes from the restored registry must match direct
	// elections (rounds and leader pin the whole execution).
	for key, cfg := range testConfigs() {
		restored, err := dst.Elect(key)
		if err != nil {
			t.Fatalf("restored elect %s: %v", key, err)
		}
		orig, err := src.Elect(key)
		if err != nil {
			t.Fatalf("source elect %s: %v", key, err)
		}
		if restored.Leader != orig.Leader || restored.Rounds != orig.Rounds {
			t.Fatalf("%s: restored outcome %+v, source %+v", key, restored, orig)
		}
		d, err := election.BuildDedicated(cfg)
		if err != nil {
			t.Fatalf("build %s: %v", key, err)
		}
		out, err := d.Elect(radio.Options{})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if out.Leader() != restored.Leader || out.Rounds != restored.Rounds {
			t.Fatalf("%s: direct leader=%d rounds=%d, restored leader=%d rounds=%d",
				key, out.Leader(), out.Rounds, restored.Leader, restored.Rounds)
		}
	}
}

// TestResnapshotSameDirectory re-snapshots a changed registry into the same
// directory and checks the new manifest supersedes the old content: the
// second snapshot writes a new entries file, the manifest's rename commits
// it, and the first snapshot's file is gone.
func TestResnapshotSameDirectory(t *testing.T) {
	dir := t.TempDir()
	src := newTestRegistry(t, 2)
	if _, err := src.Snapshot(dir); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	// Change the key set so the sorted numbering shifts: drop the
	// lexicographically-first key and add a new one.
	first, err := src.snapshotEntries()
	if err != nil {
		t.Fatalf("entries: %v", err)
	}
	if ok, err := src.Evict(first[0].Key); !ok || err != nil {
		t.Fatalf("evict %q failed", first[0].Key)
	}
	if err := src.Register("zz-new", config.StaggeredClique(9)); err != nil {
		t.Fatalf("register: %v", err)
	}
	m, err := src.Snapshot(dir)
	if err != nil {
		t.Fatalf("second snapshot: %v", err)
	}
	if len(m.Entries) != len(testConfigs()) {
		t.Fatalf("second manifest has %d entries, want %d", len(m.Entries), len(testConfigs()))
	}
	// No staging leftovers, only the new entries file, and the directory
	// restores to exactly the second registry content.
	leftovers, err := filepath.Glob(filepath.Join(dir, "*.staged"))
	if err != nil || len(leftovers) != 0 {
		t.Fatalf("staged leftovers after commit: %v %v", leftovers, err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "entries-*.bin")); len(files) != 1 || filepath.Base(files[0]) != m.EntriesFile {
		t.Fatalf("entries files after the second snapshot: %v, want only %s", files, m.EntriesFile)
	}
	dst := New(Options{Shards: 1})
	t.Cleanup(dst.Close)
	report, err := dst.Restore(dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if report.Entries != len(m.Entries) || len(report.Skipped) != 0 {
		t.Fatalf("restore report %+v, want all %d entries", report, len(m.Entries))
	}
	if out, err := dst.Elect("zz-new"); err != nil || !out.Elected() {
		t.Fatalf("new key after re-snapshot: %v %+v", err, out)
	}
	if out, _ := dst.Elect(first[0].Key); out.Err == nil {
		t.Fatalf("evicted key %q still restorable after re-snapshot", first[0].Key)
	}
}

// TestRestoreIgnoresManifestDigest gives a snapshot's manifest the
// per-entry artifact digests earlier releases recorded, one of them wrong:
// Restore ignores them, restores every entry and serves identical outcomes.
func TestRestoreIgnoresManifestDigest(t *testing.T) {
	dir := t.TempDir()
	src := newTestRegistry(t, 2)
	manifest, err := src.Snapshot(dir)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var raw map[string]any
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err == nil {
		err = json.Unmarshal(data, &raw)
	}
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	for i, e := range raw["entries"].([]any) {
		digest := "54fd9a642a312481"
		if i == 0 {
			digest = "deadbeefdeadbeef"
		}
		e.(map[string]any)["artifact_digest"] = digest
	}
	if data, err = json.MarshalIndent(raw, "", "  "); err != nil {
		t.Fatalf("re-encoding manifest: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), data, 0o644); err != nil {
		t.Fatalf("rewriting manifest: %v", err)
	}

	dst := New(Options{Shards: 2})
	t.Cleanup(dst.Close)
	report, err := dst.Restore(dir)
	if err != nil {
		t.Fatalf("restore with recorded digests: %v", err)
	}
	if report.Entries != len(manifest.Entries) || len(report.Skipped) != 0 {
		t.Fatalf("restore report %+v, want all %d entries", report, len(manifest.Entries))
	}
	for _, e := range manifest.Entries {
		restored, err := dst.Elect(e.Key)
		if err != nil {
			t.Fatalf("elect %s: %v", e.Key, err)
		}
		orig, err := src.Elect(e.Key)
		if err != nil {
			t.Fatalf("source elect %s: %v", e.Key, err)
		}
		if restored.Leader != orig.Leader || restored.Rounds != orig.Rounds {
			t.Fatalf("%s: restored entry diverged: %+v vs %+v", e.Key, restored, orig)
		}
	}
}

// TestRestoreRejectsTamperedArtifact rewrites an artifact's leader history:
// Load must reject the inconsistent artifact — which, under the
// graceful-restore contract, means the entry is skipped and reported while
// every undamaged entry still boots.
func TestRestoreRejectsTamperedArtifact(t *testing.T) {
	dir := t.TempDir()
	src := newTestRegistry(t, 1)
	manifest, err := src.Snapshot(dir)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Find an entry with more than one node (its leader history is
	// non-trivial) and drop the history from its record, re-framed with a
	// valid CRC so the damage reaches Load.
	var target ManifestEntry
	for _, e := range manifest.Entries {
		if e.Nodes > 1 {
			target = e
			break
		}
	}
	if target.Key == "" {
		t.Fatal("no multi-node entry in the test fleet")
	}
	rewriteRecords(t, dir, func(rec *wire.WALAdmit) bool {
		if rec.Key == target.Key {
			rec.Artifact.LeaderHistory = nil // tampered: decision data gone
		}
		return true
	})

	dst := New(Options{Shards: 1})
	t.Cleanup(dst.Close)
	report, err := dst.Restore(dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(report.Skipped) != 1 || report.Skipped[0].Key != target.Key {
		t.Fatalf("report.Skipped = %+v, want exactly the tampered key %q", report.Skipped, target.Key)
	}
	if report.Entries != len(manifest.Entries)-1 {
		t.Fatalf("restored %d entries, want %d (all but the tampered one)", report.Entries, len(manifest.Entries)-1)
	}
	if out, _ := dst.Elect(target.Key); out.Err == nil {
		t.Fatalf("tampered key %q is servable after restore", target.Key)
	}
}

// TestRestorePartialDamage injects every damage mode the graceful restore
// must survive, one per entry of a six-key snapshot with two entries left
// intact, in both snapshot versions. Version 2: a record whose bytes no
// longer match its CRC, a record missing from the entries file, a record
// without an artifact, and a record whose configuration text does not
// parse. Version 1: a deleted artifact file, a corrupt artifact, a deleted
// configuration file, and corrupt configuration text. The restore must
// boot every undamaged entry, skip each damaged one with a report naming
// its key, and return no error.
func TestRestorePartialDamage(t *testing.T) {
	src := New(Options{Shards: 2})
	t.Cleanup(src.Close)
	keys := []string{"intact-a", "dmg-1", "dmg-2", "dmg-3", "dmg-4", "intact-b"}
	for i, key := range keys {
		if err := src.Register(key, config.StaggeredClique(5+i)); err != nil {
			t.Fatalf("register %s: %v", key, err)
		}
	}
	damaged := keys[1:5]

	t.Run("v2", func(t *testing.T) {
		dir := t.TempDir()
		manifest, err := src.Snapshot(dir)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		rewriteRecords(t, dir, func(rec *wire.WALAdmit) bool {
			switch rec.Key {
			case "dmg-2":
				return false
			case "dmg-3":
				rec.Artifact = nil
			case "dmg-4":
				rec.Config = "nodes banana"
			}
			return true
		})
		// Flip one byte inside dmg-1's frame: its CRC fails, and the scan
		// resynchronizes on the next record.
		path := filepath.Join(dir, manifest.EntriesFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		first := manifest.Entries[0] // dmg-1 sorts first, so the rewrite kept its offset
		if first.Key != "dmg-1" {
			t.Fatalf("manifest entry 0 is %q", first.Key)
		}
		data[first.Offset+int64(first.Length)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkPartialRestore(t, src, dir, damaged)
	})

	t.Run("v1", func(t *testing.T) {
		dir := t.TempDir()
		manifest := writeV1Snapshot(t, src, dir)
		files := map[string]ManifestEntry{}
		for _, e := range manifest.Entries {
			files[e.Key] = e
		}
		for _, err := range []error{
			os.Remove(filepath.Join(dir, files["dmg-1"].ArtifactFile)),
			os.WriteFile(filepath.Join(dir, files["dmg-2"].ArtifactFile), []byte("{not json"), 0o644),
			os.Remove(filepath.Join(dir, files["dmg-3"].ConfigFile)),
			os.WriteFile(filepath.Join(dir, files["dmg-4"].ConfigFile), []byte("nodes banana"), 0o644),
		} {
			if err != nil {
				t.Fatalf("injecting damage: %v", err)
			}
		}
		checkPartialRestore(t, src, dir, damaged)
	})
}

// checkPartialRestore restores dir into a fresh registry and checks that
// exactly the damaged keys are skipped, each with a reason naming it, and
// absent, while every other key of src serves src's outcome.
func checkPartialRestore(t *testing.T, src *Registry, dir string, damaged []string) {
	t.Helper()
	dst := New(Options{Shards: 3})
	t.Cleanup(dst.Close)
	report, err := dst.Restore(dir)
	if err != nil {
		t.Fatalf("restore of a partially-damaged snapshot failed outright: %v", err)
	}
	if report.Entries != src.Len()-len(damaged) || len(report.Skipped) != len(damaged) {
		t.Fatalf("restored %d entries and skipped %+v, want %d restored and %v skipped",
			report.Entries, report.Skipped, src.Len()-len(damaged), damaged)
	}
	for i, s := range report.Skipped {
		if s.Key != damaged[i] || !strings.Contains(s.Reason, s.Key) {
			t.Fatalf("skipped entry %d is %+v, want %q with a reason naming it", i, s, damaged[i])
		}
		if out, _ := dst.Elect(s.Key); out.Err == nil {
			t.Fatalf("damaged key %q is servable", s.Key)
		}
	}
	entries, err := src.snapshotEntries()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if slices.Contains(damaged, e.Key) {
			continue
		}
		restored, err := dst.Elect(e.Key)
		if err != nil {
			t.Fatalf("elect %s after partial restore: %v", e.Key, err)
		}
		orig, err := src.Elect(e.Key)
		if err != nil {
			t.Fatalf("source elect %s: %v", e.Key, err)
		}
		if restored.Leader != orig.Leader || restored.Rounds != orig.Rounds {
			t.Fatalf("%s diverged after partial restore: %+v vs %+v", e.Key, restored, orig)
		}
	}
}

// TestRestoreErrors pins the failure modes of the manifest reader.
func TestRestoreErrors(t *testing.T) {
	dst := New(Options{Shards: 1})
	t.Cleanup(dst.Close)

	if _, err := dst.Restore(t.TempDir()); err == nil {
		t.Fatal("restore of an empty directory succeeded")
	}

	dir := t.TempDir()
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(body), 0o644); err != nil {
			t.Fatalf("writing manifest: %v", err)
		}
	}
	write("{nope")
	if _, err := dst.Restore(dir); err == nil {
		t.Fatal("restore of a malformed manifest succeeded")
	}
	write(`{"version": 99, "entries": []}`)
	if _, err := dst.Restore(dir); err == nil {
		t.Fatal("restore of an unsupported manifest version succeeded")
	}
	write(`{"version": 2, "entries_file": "../entries-00000001.bin", "entries": []}`)
	if _, err := dst.Restore(dir); err == nil {
		t.Fatal("restore accepted a path-escaping entries file")
	}
	write(`{"version": 2, "entries": []}`)
	if _, err := dst.Restore(dir); err == nil {
		t.Fatal("restore accepted a version-2 manifest without an entries file")
	}
	write(`{"version": 1, "entries": [{"key": "a", "config_file": "../evil", "artifact_file": "x.json"}]}`)
	if _, err := dst.Restore(dir); err == nil {
		t.Fatal("restore accepted a path-escaping manifest entry")
	}
	write(`{"version": 1, "entries": [{"key": "a", "config_file": "c.txt", "artifact_file": "a.json"}, {"key": "a", "config_file": "c.txt", "artifact_file": "a.json"}]}`)
	if _, err := dst.Restore(dir); err == nil {
		t.Fatal("restore accepted a duplicate key")
	}
}

// TestSnapshotClosedRegistry pins the closed-registry behavior of the
// snapshot entry points.
func TestSnapshotClosedRegistry(t *testing.T) {
	r := New(Options{Shards: 1})
	r.Close()
	if _, err := r.Snapshot(t.TempDir()); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot on closed registry: %v, want ErrClosed", err)
	}
	if _, err := r.Restore(t.TempDir()); !errors.Is(err, ErrClosed) {
		t.Fatalf("restore on closed registry: %v, want ErrClosed", err)
	}
}

func benchKey(i int) string { return "cfg-" + string(rune('a'+i)) }

// The restore/rebuild benchmark fleet: line-family and staggered-path
// configurations whose classification-and-build work (what a restore
// skips) dominates the JSON parsing a restore pays for. The tradeoff tips
// the other way on configurations that classify in a few cheap iterations
// (a staggered clique builds faster than its artifact parses);
// docs/PERFORMANCE.md publishes both sides.
const snapBenchCfgs = 4

func snapBenchConfig(i int) *config.Config {
	if i%2 == 0 {
		return config.LineFamilyG(8 + i)
	}
	return config.StaggeredPath(48+8*i, 1)
}

// BenchmarkSnapshotRestore measures a full cold restore (manifest + files +
// artifact loads, parsed concurrently) of the benchmark fleet.
func BenchmarkSnapshotRestore(b *testing.B) {
	dir := b.TempDir()
	src := New(Options{Shards: 2})
	for i := 0; i < snapBenchCfgs; i++ {
		if err := src.Register(benchKey(i), snapBenchConfig(i)); err != nil {
			b.Fatalf("register: %v", err)
		}
	}
	if _, err := src.Snapshot(dir); err != nil {
		b.Fatalf("snapshot: %v", err)
	}
	src.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := New(Options{Shards: 2})
		report, err := dst.Restore(dir)
		if err != nil {
			b.Fatalf("restore: %v", err)
		}
		if report.Entries != snapBenchCfgs {
			b.Fatalf("report %+v, want %d entries", report, snapBenchCfgs)
		}
		dst.Close()
	}
}

// BenchmarkSnapshotColdRebuild is the baseline Restore beats: re-admitting
// the same registry content by re-classifying and re-building every
// configuration from scratch.
func BenchmarkSnapshotColdRebuild(b *testing.B) {
	cfgs := make([]*config.Config, snapBenchCfgs)
	for i := range cfgs {
		cfgs[i] = snapBenchConfig(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := New(Options{Shards: 2})
		for j, cfg := range cfgs {
			if err := dst.Register(benchKey(j), cfg); err != nil {
				b.Fatalf("register: %v", err)
			}
		}
		dst.Close()
	}
}
