package service

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/radio"
	"anonradio/internal/wire"
)

// TestSnapshotRestoreRoundTrip is the snapshot acceptance check: snapshot a
// populated registry, restore into a fresh one, and assert the key set and
// the election outcomes survive bit-identically — the latter checked
// against direct Dedicated elections. Artifacts and manifest carry neither
// a phase table nor a digest.
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
	// Keys must cover the registry, and no artifact file carries a table or
	// a digest.
	keys := map[string]bool{}
	for _, e := range manifest.Entries {
		keys[e.Key] = true
		data, err := os.ReadFile(filepath.Join(dir, e.ArtifactFile))
		if err != nil {
			t.Fatalf("reading artifact %s: %v", e.ArtifactFile, err)
		}
		artifact, err := wire.DecodeArtifactAuto(data)
		if err != nil {
			t.Fatalf("decoding artifact %s: %v", e.ArtifactFile, err)
		}
		if artifact.PhaseTable != nil || artifact.ArtifactDigest != "" {
			t.Fatalf("artifact %s carries a phase table or the digest %q", e.ArtifactFile, artifact.ArtifactDigest)
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
// directory and checks the new manifest supersedes the old content — the
// entry numbering reshuffles when keys change, so this pins the staged
// commit (a manifest must never name another snapshot's files).
func TestResnapshotSameDirectory(t *testing.T) {
	dir := t.TempDir()
	src := newTestRegistry(t, 2)
	if _, err := src.Snapshot(dir); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	// Change the key set so the sorted numbering shifts: drop the
	// lexicographically-first key and add a new one.
	first, err := src.SnapshotEntries()
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
	// No staging leftovers, and the directory restores to exactly the
	// second registry content.
	leftovers, err := filepath.Glob(filepath.Join(dir, "*.staged"))
	if err != nil || len(leftovers) != 0 {
		t.Fatalf("staged leftovers after commit: %v %v", leftovers, err)
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
	// non-trivial) and truncate the history in the artifact file.
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
	path := filepath.Join(dir, target.ArtifactFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading artifact: %v", err)
	}
	artifact, err := wire.DecodeArtifactAuto(data)
	if err != nil {
		t.Fatalf("decoding artifact: %v", err)
	}
	artifact.LeaderHistory = nil // tampered: decision data gone
	tampered, err := json.Marshal(artifact)
	if err != nil {
		t.Fatalf("re-encoding artifact: %v", err)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatalf("rewriting artifact: %v", err)
	}

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
// must survive — a deleted artifact file, a corrupt artifact JSON, a
// deleted configuration file, and corrupt configuration text — one per
// entry of a four-key snapshot, plus leaves other entries intact. The
// restore must boot every undamaged entry, skip each damaged one with a
// report naming its key, and return no error.
func TestRestorePartialDamage(t *testing.T) {
	dir := t.TempDir()
	src := New(Options{Shards: 2})
	t.Cleanup(src.Close)
	keys := []string{"intact-a", "dmg-artifact-gone", "dmg-artifact-corrupt", "dmg-config-gone", "dmg-config-corrupt", "intact-b"}
	for i, key := range keys {
		if err := src.Register(key, config.StaggeredClique(5+i)); err != nil {
			t.Fatalf("register %s: %v", key, err)
		}
	}
	manifest, err := src.Snapshot(dir)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	files := map[string]ManifestEntry{}
	for _, e := range manifest.Entries {
		files[e.Key] = e
	}
	damage := map[string]func() error{
		"dmg-artifact-gone": func() error {
			return os.Remove(filepath.Join(dir, files["dmg-artifact-gone"].ArtifactFile))
		},
		"dmg-artifact-corrupt": func() error {
			return os.WriteFile(filepath.Join(dir, files["dmg-artifact-corrupt"].ArtifactFile), []byte("{not json"), 0o644)
		},
		"dmg-config-gone": func() error {
			return os.Remove(filepath.Join(dir, files["dmg-config-gone"].ConfigFile))
		},
		"dmg-config-corrupt": func() error {
			return os.WriteFile(filepath.Join(dir, files["dmg-config-corrupt"].ConfigFile), []byte("nodes banana"), 0o644)
		},
	}
	for key, apply := range damage {
		if err := apply(); err != nil {
			t.Fatalf("injecting damage for %s: %v", key, err)
		}
	}

	dst := New(Options{Shards: 3})
	t.Cleanup(dst.Close)
	report, err := dst.Restore(dir)
	if err != nil {
		t.Fatalf("restore of a partially-damaged snapshot failed outright: %v", err)
	}
	if report.Entries != 2 {
		t.Fatalf("restored %d entries, want 2 intact ones (report %+v)", report.Entries, report)
	}
	if len(report.Skipped) != len(damage) {
		t.Fatalf("skipped %d entries, want %d: %+v", len(report.Skipped), len(damage), report.Skipped)
	}
	skippedKeys := map[string]string{}
	for _, s := range report.Skipped {
		skippedKeys[s.Key] = s.Reason
	}
	for key := range damage {
		reason, ok := skippedKeys[key]
		if !ok {
			t.Fatalf("damaged key %q missing from report.Skipped: %+v", key, report.Skipped)
		}
		if reason == "" || !strings.Contains(reason, key) {
			t.Fatalf("skip reason for %q does not name the key: %q", key, reason)
		}
	}
	// The intact entries serve, bit-identical to the source.
	for _, key := range []string{"intact-a", "intact-b"} {
		restored, err := dst.Elect(key)
		if err != nil {
			t.Fatalf("elect %s after partial restore: %v", key, err)
		}
		orig, err := src.Elect(key)
		if err != nil {
			t.Fatalf("source elect %s: %v", key, err)
		}
		if restored.Leader != orig.Leader || restored.Rounds != orig.Rounds {
			t.Fatalf("%s diverged after partial restore: %+v vs %+v", key, restored, orig)
		}
	}
	// The damaged entries are absent, not half-admitted.
	for key := range damage {
		if out, _ := dst.Elect(key); out.Err == nil {
			t.Fatalf("damaged key %q is servable", key)
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
