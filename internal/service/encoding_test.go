package service

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// jsonEraFixture is a -wal-dir written by a daemon that still wrote JSON
// (see its README.md): a JSON checkpoint holding jsonEraCheckpointKeys and
// a JSON journal tail that admits era1-d, era1-e and era1-x, then evicts
// era1-x.
const jsonEraFixture = "testdata/json-era"

var jsonEraCheckpointKeys = []string{"era1-a", "era1-b", "era1-c"}

// jsonEraConfigs returns the configurations the fixture admitted, keyed as
// it admitted them (era1-x, evicted again, is left out).
func jsonEraConfigs(t *testing.T) map[string]*config.Config {
	t.Helper()
	parse := func(text string) *config.Config {
		cfg, err := config.Unmarshal(text)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	return map[string]*config.Config{
		"era1-a": parse("name demo\nnodes 4\ntag 0 2\ntag 1 0\ntag 2 0\ntag 3 3\nedge 0 1\nedge 1 2\nedge 2 3\n"),
		"era1-b": config.StaggeredClique(4),
		"era1-c": parse("name churn\nnodes 3\ntag 0 0\ntag 1 2\ntag 2 4\nedge 0 1\nedge 1 2\n"),
		"era1-d": config.StaggeredPath(5, 1),
		"era1-e": config.EarlyCenterStar(4, 4),
	}
}

// copyJSONEra copies the fixture into a fresh directory: a boot appends a
// journal segment and a checkpoint rewrites checkpoint/, and the checked-in
// files must stay as they were written.
func copyJSONEra(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.CopyFS(dir, os.DirFS(jsonEraFixture)); err != nil {
		t.Fatalf("copying the JSON-era fixture: %v", err)
	}
	return dir
}

// freshOutcomes builds every configuration of cfgs from scratch in a plain
// registry and elects once per key.
func freshOutcomes(t *testing.T, cfgs map[string]*config.Config) map[string][2]int {
	t.Helper()
	r := New(Options{Shards: 2})
	t.Cleanup(r.Close)
	keys := make([]string, 0, len(cfgs))
	for key, cfg := range cfgs {
		if err := r.Register(key, cfg); err != nil {
			t.Fatalf("register %s: %v", key, err)
		}
		keys = append(keys, key)
	}
	return electOutcomes(t, r, keys)
}

// snapshotBytes sizes a snapshot's data: the artifact files of a version-1
// manifest, each asserted to be (or not be) a wire frame, or the entries
// file of a version-2 one, whose records are always frames.
func snapshotBytes(t *testing.T, dir string, m *Manifest, frames bool) int64 {
	t.Helper()
	if m.Version == ManifestVersion {
		if !frames {
			t.Fatalf("a version-2 snapshot holds only frames")
		}
		snapshotRecords(t, dir)
		info, err := os.Stat(filepath.Join(dir, m.EntriesFile))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	var total int64
	for _, e := range m.Entries {
		data, err := os.ReadFile(filepath.Join(dir, e.ArtifactFile))
		if err != nil {
			t.Fatal(err)
		}
		if wire.IsFrame(data) != frames {
			t.Fatalf("%s: IsFrame = %v, want %v", e.ArtifactFile, !frames, frames)
		}
		total += int64(len(data))
	}
	return total
}

// checkOnlySnapshotFiles fails unless dir holds exactly the manifest and
// m's entries file, apart from the names in other.
func checkOnlySnapshotFiles(t *testing.T, dir string, m *Manifest, other ...string) {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		if !slices.Contains(other, f.Name()) {
			names = append(names, f.Name())
		}
	}
	if want := []string{m.EntriesFile, ManifestFile}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("snapshot directory holds %v, want %v", names, want)
	}
}

// TestRestoreReadsBothArtifactEncodings restores a snapshot of each
// artifact encoding into a plain registry: the fixture's JSON-era
// checkpoint and a binary snapshot of the same configurations. Both restore
// every entry and serve the outcomes of fresh builds, and the binary
// snapshot's entries file, configurations included, is several-fold smaller
// than the JSON artifacts alone.
func TestRestoreReadsBothArtifactEncodings(t *testing.T) {
	all := jsonEraConfigs(t)
	cfgs := make(map[string]*config.Config, len(jsonEraCheckpointKeys))
	for _, key := range jsonEraCheckpointKeys {
		cfgs[key] = all[key]
	}
	want := freshOutcomes(t, cfgs)

	jsonDir := filepath.Join(copyJSONEra(t), CheckpointDirName)
	mJSON, err := ReadManifest(jsonDir)
	if err != nil {
		t.Fatal(err)
	}
	src := New(Options{Shards: 2})
	t.Cleanup(src.Close)
	for key, cfg := range cfgs {
		if err := src.Register(key, cfg); err != nil {
			t.Fatal(err)
		}
	}
	binDir := t.TempDir()
	mBin, err := src.Snapshot(binDir)
	if err != nil {
		t.Fatalf("binary snapshot: %v", err)
	}
	if mJSON.Encoding != "json" || mBin.Encoding != "binary" {
		t.Fatalf("manifest encodings %q / %q, want json / binary", mJSON.Encoding, mBin.Encoding)
	}
	jsonBytes := snapshotBytes(t, jsonDir, mJSON, false)
	binBytes := snapshotBytes(t, binDir, mBin, true)
	if binBytes*3 > jsonBytes {
		t.Fatalf("the binary entries file is %d bytes vs %d of JSON artifacts — want at least 3x smaller", binBytes, jsonBytes)
	}

	for _, dir := range []string{jsonDir, binDir} {
		dst := New(Options{Shards: 3})
		t.Cleanup(dst.Close)
		report, err := dst.Restore(dir)
		if err != nil {
			t.Fatalf("restore from %s: %v", dir, err)
		}
		if report.Entries != len(cfgs) || len(report.Skipped) != 0 {
			t.Fatalf("restore report %+v, want all %d entries", report, len(cfgs))
		}
		if got := electOutcomes(t, dst, jsonEraCheckpointKeys); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("outcomes diverged after restoring %s:\n got %v\nwant %v", dir, got, want)
		}
	}
}

// TestJSONEraSnapshotCheckpointsBinary is the upgrade path: Open boots the
// JSON-era fixture (JSON checkpoint restored, JSON journal tail replayed
// with its admit/evict pair compacted) into the outcomes of fresh builds,
// and the next checkpoint rewrites the state as a version-2 snapshot,
// leaving none of the fixture's per-key files behind.
func TestJSONEraSnapshotCheckpointsBinary(t *testing.T) {
	cfgs := jsonEraConfigs(t)
	want := freshOutcomes(t, cfgs)
	dir := copyJSONEra(t)

	r, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if !report.Clean() || !report.CheckpointRestored || report.Checkpoint.Entries != len(jsonEraCheckpointKeys) {
		t.Fatalf("JSON checkpoint not restored: %+v", report)
	}
	if report.Admits != 2 || report.Evicts != 1 || report.Compacted != 1 {
		t.Fatalf("JSON tail replay: %d admits / %d evicts / %d compacted, want 2 / 1 / 1",
			report.Admits, report.Evicts, report.Compacted)
	}
	keys := make([]string, 0, len(cfgs))
	for key := range cfgs {
		keys = append(keys, key)
	}
	if got := electOutcomes(t, r, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("JSON-era outcomes diverged from fresh builds:\n got %v\nwant %v", got, want)
	}
	if out, _ := r.Elect("era1-x"); out.Err == nil {
		t.Fatal("the evicted era1-x was resurrected")
	}

	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckDir := filepath.Join(dir, CheckpointDirName)
	m, recs := snapshotRecords(t, ckDir)
	if m.Encoding != "binary" || len(m.Entries) != len(cfgs) || len(recs) != len(cfgs) {
		t.Fatalf("checkpoint manifest after the upgrade: %+v with %d records (want %d binary entries)", m, len(recs), len(cfgs))
	}
	checkOnlySnapshotFiles(t, ckDir, m)
}

// tableEraFixture is a -wal-dir written by a daemon whose artifacts still
// carried a phase table and a digest (see its README.md): a binary
// checkpoint holding tab-a..c and a binary journal tail that admits tab-d,
// tab-e and tab-x, then evicts tab-x. Its configurations are the JSON-era
// fixture's, key for key.
const tableEraFixture = "testdata/table-era"

// TestTableEraBoots is the upgrade path from artifacts with phase tables:
// Open boots a copy of the table-era fixture — every checkpoint entry and
// journal admit loaded, its embedded table checked against the lists —
// into the outcomes of fresh builds, and the next checkpoint (a version-2
// snapshot, the fixture's per-key files gone) and journal record write
// artifacts without tables or digests.
func TestTableEraBoots(t *testing.T) {
	cfgs := make(map[string]*config.Config)
	for key, cfg := range jsonEraConfigs(t) {
		cfgs["tab-"+strings.TrimPrefix(key, "era1-")] = cfg
	}
	want := freshOutcomes(t, cfgs)
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.CopyFS(dir, os.DirFS(tableEraFixture)); err != nil {
		t.Fatalf("copying the table-era fixture: %v", err)
	}

	r, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if !report.Clean() || !report.CheckpointRestored || report.Checkpoint.Entries != 3 ||
		report.Admits != 2 || report.Evicts != 1 || report.Compacted != 1 {
		t.Fatalf("table-era boot: %+v, want 3 checkpoint entries and 2 admits / 1 evict / 1 compacted", report)
	}
	if loads := r.AdmissionStats().ArtifactLoads; loads != 5 {
		t.Fatalf("ArtifactLoads = %d, want 5 (3 restored, 2 replayed)", loads)
	}
	keys := make([]string, 0, len(cfgs))
	for key := range cfgs {
		keys = append(keys, key)
	}
	if got := electOutcomes(t, r, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("table-era outcomes diverged from fresh builds:\n got %v\nwant %v", got, want)
	}
	if out, _ := r.Elect("tab-x"); out.Err == nil {
		t.Fatal("the evicted tab-x was resurrected")
	}

	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckDir := filepath.Join(dir, CheckpointDirName)
	m, recs := snapshotRecords(t, ckDir)
	if len(m.Entries) != len(cfgs) || len(recs) != len(cfgs) {
		t.Fatalf("checkpoint manifest after the upgrade: %+v with %d records (want %d entries)", m, len(recs), len(cfgs))
	}
	for _, rec := range recs {
		if c := rec.Artifact; c.PhaseTable != nil || c.ArtifactDigest != "" {
			t.Fatalf("%s after the checkpoint carries a phase table or the digest %q", rec.Key, c.ArtifactDigest)
		}
	}
	checkOnlySnapshotFiles(t, ckDir, m)

	// A new admission's journal record carries no table or digest either.
	if err := r.Register("tab-f", config.StaggeredPath(6, 1)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	admits := 0
	if _, err := wal.Replay(dir, func(payload []byte) error {
		typ, body, _, err := wire.DecodeFrame(payload)
		if err != nil || typ != wire.FrameWALAdmit {
			return err
		}
		var rec wire.WALAdmit
		if err := rec.DecodeFrom(body); err != nil {
			return err
		}
		if rec.Artifact.PhaseTable != nil || rec.Artifact.ArtifactDigest != "" {
			t.Errorf("the journal's %s admit carries a phase table or the digest %q", rec.Key, rec.Artifact.ArtifactDigest)
		}
		admits++
		return nil
	}); err != nil || admits != 1 {
		t.Fatalf("replaying the journal: %d admits, %v; want the one of tab-f", admits, err)
	}
}

// TestMixedEncodingJournalReplay appends a binary journal tail to the
// JSON-era fixture — an admit, and an evict of a key whose admit is a JSON
// record — and asserts the next boot replays both encodings into the same
// outcomes, compacting the admit/evict pair across the encoding boundary.
func TestMixedEncodingJournalReplay(t *testing.T) {
	cfgs := jsonEraConfigs(t)
	dir := copyJSONEra(t)

	era2, _ := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	cfgs["era2-f"] = config.StaggeredPath(8, 1)
	if err := era2.Register("era2-f", cfgs["era2-f"]); err != nil {
		t.Fatal(err)
	}
	if ok, err := era2.Evict("era1-d"); !ok || err != nil {
		t.Fatal("evicting the JSON-journaled era1-d failed")
	}
	delete(cfgs, "era1-d")
	keys := make([]string, 0, len(cfgs))
	for key := range cfgs {
		keys = append(keys, key)
	}
	want := electOutcomes(t, era2, keys)
	era2.Close()

	// era1-x pairs within the JSON tail; era1-d pairs a JSON admit with the
	// binary evict, so the compaction pre-pass drops both admits instead of
	// installing them just to tear them down again.
	era3, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if !report.Clean() || report.Admits != 2 || report.Evicts != 2 || report.Compacted != 2 {
		t.Fatalf("mixed-encoding replay: %+v", report)
	}
	for _, gone := range []string{"era1-d", "era1-x"} {
		if out, _ := era3.Elect(gone); out.Err == nil {
			t.Fatalf("evicted %s was resurrected", gone)
		}
	}
	got := electOutcomes(t, era3, keys)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("mixed-encoding outcomes diverged across the reboot:\n got %v\nwant %v", got, want)
	}
	if fresh := freshOutcomes(t, cfgs); fmt.Sprint(got) != fmt.Sprint(fresh) {
		t.Fatalf("mixed-encoding outcomes diverged from fresh builds:\n got %v\nwant %v", got, fresh)
	}
}

// TestSnapshotRemovesOrphanedFiles pins that a snapshot directory holds
// only what its manifest names: the entries file of an earlier, larger
// snapshot, the per-key files of a version-1 snapshot (binary or JSON-era)
// and staged leftovers of an interrupted write are deleted, while
// unrelated files stay.
func TestSnapshotRemovesOrphanedFiles(t *testing.T) {
	const notes = "notes.txt"
	registry := func(t *testing.T) *Registry {
		r := New(Options{Shards: 2})
		t.Cleanup(r.Close)
		for _, key := range []string{"a", "b", "c"} {
			if err := r.Register(key, config.StaggeredClique(4)); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	snapshotInto := func(t *testing.T, r *Registry, dir string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, notes), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := r.Snapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		if m.Version != ManifestVersion || len(m.Entries) != r.Len() {
			t.Fatalf("manifest version %d with %d entries, want %d with %d", m.Version, len(m.Entries), ManifestVersion, r.Len())
		}
		checkOnlySnapshotFiles(t, dir, m, notes)
	}

	t.Run("shrunk registry", func(t *testing.T) {
		r := registry(t)
		dir := t.TempDir()
		if _, err := r.Snapshot(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "0007.config.txt.staged"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		r.Evict("b")
		r.Evict("c")
		snapshotInto(t, r, dir)
	})

	t.Run("version-1 snapshot", func(t *testing.T) {
		r := registry(t)
		dir := t.TempDir()
		writeV1Snapshot(t, r, dir)
		snapshotInto(t, r, dir)
	})

	t.Run("JSON-era checkpoint", func(t *testing.T) {
		dir := filepath.Join(copyJSONEra(t), CheckpointDirName)
		r := New(Options{Shards: 2})
		t.Cleanup(r.Close)
		if _, err := r.Restore(dir); err != nil {
			t.Fatal(err)
		}
		snapshotInto(t, r, dir)
	})
}

// BenchmarkBinarySnapshotWrite measures writing the benchmark fleet's
// snapshot (the checkpoint cost); BenchmarkSnapshotRestore measures the
// boot cost. docs/PERFORMANCE.md ("Binary wire encoding") carries the
// analysis.
func BenchmarkBinarySnapshotWrite(b *testing.B) {
	src := New(Options{Shards: 2})
	defer src.Close()
	for i := 0; i < snapBenchCfgs; i++ {
		if err := src.Register(benchKey(i), snapBenchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Snapshot(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryWALAdmit measures one journaled admission end to end
// (build + install + journal append), SyncOff so the encoding cost is not
// drowned by fsync. The count trigger is off: with automatic pacing the
// one re-registered key checkpoints every 64 records on the background
// checkpointer, whose allocations would land in allocs/op, and
// BenchmarkBinarySnapshotWrite measures checkpoints.
func BenchmarkBinaryWALAdmit(b *testing.B) {
	r, _, err := Open(Options{Shards: 2, WAL: WALOptions{Dir: b.TempDir(), Sync: wal.SyncOff, CheckpointRecords: -1}})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	cfg := config.StaggeredClique(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Register("k", cfg); err != nil {
			b.Fatal(err)
		}
	}
}
