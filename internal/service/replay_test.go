package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// replayInOrder is the recovery replay ran before it kept only each key's
// newest record, kept as the reference Open must agree with: restore the
// checkpoint in dir, then apply every intact journal record in journal
// order. It returns the registry, the report, and for each record its key
// (as peekKey reads it; "" when it has none) and whether it took effect.
// wal.Replay repairs torn tails in place, so dir must be a copy.
func replayInOrder(t *testing.T, dir string) (*Registry, *RecoveryReport, []string, []bool) {
	t.Helper()
	r := New(Options{Shards: 2})
	t.Cleanup(r.Close)
	report := &RecoveryReport{}
	ckDir := filepath.Join(dir, CheckpointDirName)
	if _, err := os.Stat(filepath.Join(ckDir, ManifestFile)); err == nil {
		rr, err := r.Restore(ckDir)
		if err != nil {
			t.Fatal(err)
		}
		report.CheckpointRestored, report.Checkpoint = true, *rr
	}
	var keys []string
	var applied []bool
	jr, err := wal.Replay(dir, func(payload []byte) error {
		key, _ := peekKey(payload)
		keys = append(keys, key)
		applied = append(applied, r.applyRecord(len(applied), payload, report))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	report.Journal = jr
	return r, report, keys, applied
}

// supersededFaults drops from faults every record a later record of its
// key superseded by taking effect: Open never tries those, so it cannot
// report them.
func supersededFaults(faults []RecordFault, keys []string, applied []bool) []RecordFault {
	var kept []RecordFault
	for _, f := range faults {
		superseded := false
		for j := f.Index + 1; j < len(keys) && keys[f.Index] != ""; j++ {
			if keys[j] == keys[f.Index] && applied[j] {
				superseded = true
				break
			}
		}
		if !superseded {
			kept = append(kept, f)
		}
	}
	return kept
}

// copyDir copies dir into a fresh temporary directory.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	copied := filepath.Join(t.TempDir(), "wal")
	if err := os.CopyFS(copied, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	return copied
}

// checkMatchesInOrder opens one copy of the journal in dir and replays
// another in order, and requires the two to agree on every key of keys
// (presence, leader, rounds), on the journal's framing report, and on the
// skipped records, apart from those a later applied record superseded. It
// returns Open's report.
func checkMatchesInOrder(t *testing.T, dir string, keys []string) *RecoveryReport {
	t.Helper()
	got, report, err := Open(Options{Shards: 2, WAL: WALOptions{Dir: copyDir(t, dir), CheckpointRecords: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(got.Close)
	want, oracle, recKeys, applied := replayInOrder(t, copyDir(t, dir))
	gotStates, wantStates := keyStates(t, got, keys), keyStates(t, want, keys)
	for _, key := range keys {
		if gotStates[key] != wantStates[key] {
			t.Errorf("key %s: Open serves %+v, in-order replay %+v", key, gotStates[key], wantStates[key])
		}
	}
	if !reflect.DeepEqual(report.Journal, oracle.Journal) {
		t.Errorf("journal report %+v, in-order replay's %+v", report.Journal, oracle.Journal)
	}
	if wantSkipped := supersededFaults(oracle.Skipped, recKeys, applied); !reflect.DeepEqual(report.Skipped, wantSkipped) {
		t.Errorf("Open skipped %+v, in-order replay %+v", report.Skipped, wantSkipped)
	}
	if n := report.Admits + report.Evicts + report.Compacted + len(report.Skipped); n != report.Journal.Records {
		t.Errorf("%d admits + %d evicts + %d compacted + %d skipped, want the %d records",
			report.Admits, report.Evicts, report.Compacted, len(report.Skipped), report.Journal.Records)
	}
	return report
}

// writeRejectedAdmit journals an admit of key whose artifact election.Load
// rejects (a round bound that contradicts the protocol), as a journal
// damaged past its CRC would hold one.
func writeRejectedAdmit(t *testing.T, r *Registry, key string, cfg *config.Config) {
	t.Helper()
	c := compiledFor(t, cfg)
	c.RoundBound = 3
	if _, err := r.wal.Write(wire.AppendWALAdmitFrame(nil, &wire.WALAdmit{Key: key, Config: cfg.Marshal(), Artifact: c})); err != nil {
		t.Fatal(err)
	}
}

// TestReplayFallsBackToOlderAdmit journals admit A of a key, then admit B
// of the same key with an artifact Load rejects. In order, B is skipped and
// A serves; replay, which tries the newest record first, must fall back to
// A rather than compact it away.
func TestReplayFallsBackToOlderAdmit(t *testing.T) {
	dir := t.TempDir()
	r := openJournaled(t, dir, 1)
	if err := r.Register("k", config.StaggeredClique(5)); err != nil {
		t.Fatal(err)
	}
	writeRejectedAdmit(t, r, "k", config.StaggeredPath(7, 1))
	want := keyStates(t, r, []string{"k"})
	r.Close()

	report := checkMatchesInOrder(t, dir, []string{"k"})
	if report.Admits != 1 || report.Compacted != 0 || len(report.Skipped) != 1 || report.Skipped[0].Index != 1 {
		t.Fatalf("recovery report %+v, want A applied and B skipped as record 1", report)
	}
	rebooted := openJournaled(t, copyDir(t, dir), 1)
	if got := keyStates(t, rebooted, []string{"k"}); got["k"] != want["k"] || !got["k"].present {
		t.Fatalf("k after recovery %+v, want A's outcome %+v", got["k"], want["k"])
	}
}

// corruptRecord flips one payload byte of a record rng picks among all
// but the last record of dir's journal, so its CRC fails and replay skips
// it mid-log; a journal of fewer than two records is left alone.
func corruptRecord(t *testing.T, dir string, rng *rand.Rand) {
	t.Helper()
	type record struct {
		path     string
		off, len int
	}
	var recs []record
	for _, path := range segmentFiles(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 8; off+12 <= len(data); {
			size := int(binary.LittleEndian.Uint32(data[off+4:]))
			recs = append(recs, record{path, off, 12 + size})
			off += 12 + size
		}
	}
	if len(recs) < 2 {
		return
	}
	rec := recs[rng.Intn(len(recs)-1)]
	data, err := os.ReadFile(rec.path)
	if err != nil {
		t.Fatal(err)
	}
	data[rec.off+12+rng.Intn(rec.len-12)] ^= 0xff
	if err := os.WriteFile(rec.path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReplayMatchesInOrder drives random journals — admits,
// re-admits, evicts, admits whose artifact Load rejects, with checkpoints
// at random points and now and then a corrupt record mid-log — and
// requires Open to end key for key where applying every record in order
// ends, reporting the same damage.
func TestPropertyReplayMatchesInOrder(t *testing.T) {
	keys := []string{"p0", "p1", "p2", "p3"}
	cfgs := []*config.Config{
		config.StaggeredClique(4), config.StaggeredClique(6), config.StaggeredPath(5, 1),
		config.StaggeredPath(7, 2), config.EarlyCenterStar(4, 4),
	}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			r := openJournaled(t, dir, 1)
			for step := 0; step < 60; step++ {
				key, cfg := keys[rng.Intn(len(keys))], cfgs[rng.Intn(len(cfgs))]
				switch p := rng.Intn(100); {
				case p < 55:
					if err := r.Register(key, cfg); err != nil {
						t.Fatal(err)
					}
				case p < 80:
					if _, err := r.Evict(key); err != nil {
						t.Fatal(err)
					}
				case p < 96:
					writeRejectedAdmit(t, r, key, cfg)
				default:
					if err := r.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			r.Close()
			if rng.Intn(2) == 0 {
				corruptRecord(t, dir, rng)
			}
			checkMatchesInOrder(t, dir, keys)
		})
	}
}

// TestCheckpointKeepsSegmentsWhenSyncFails fails each fsync a checkpoint
// makes in turn — the entries file's, the staged manifest's, the
// directory's after the rename — through the registry's sync hook.
// Checkpoint must return the error and keep every journal segment it
// froze, and Open on a copy of the directory must bring back every key.
// With fsyncs working again the next checkpoint succeeds and removes them.
func TestCheckpointKeepsSegmentsWhenSyncFails(t *testing.T) {
	dir := t.TempDir()
	r := openJournaled(t, dir, 1)
	keys := []string{"s0", "s1", "s2", "s3"}
	for i, key := range keys {
		if err := r.Register(key, config.StaggeredClique(4+i)); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := r.Evict("s3"); !ok || err != nil {
		t.Fatalf("evict: %v %v", ok, err)
	}
	want := keyStates(t, r, keys)
	errSync := errors.New("injected fsync failure")
	fail := 0
	for ; ; fail++ {
		before := segmentFiles(t, dir)
		calls := 0
		r.syncHook = func(string) error {
			if calls++; calls == fail+1 {
				return errSync
			}
			return nil
		}
		err := r.Checkpoint()
		if calls <= fail {
			if err != nil {
				t.Fatalf("checkpoint with working fsyncs: %v", err)
			}
			break
		}
		if !errors.Is(err, errSync) {
			t.Fatalf("checkpoint with fsync %d failing: %v, want the injected error", fail+1, err)
		}
		for _, path := range before {
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("fsync %d failed, and the checkpoint removed %s", fail+1, filepath.Base(path))
			}
		}
		rebooted := openJournaled(t, copyDir(t, dir), 1)
		if got := keyStates(t, rebooted, keys); !reflect.DeepEqual(got, want) {
			t.Fatalf("fsync %d failed; Open on a copy serves %v, want %v", fail+1, got, want)
		}
	}
	if fail != 3 {
		t.Fatalf("a checkpoint made %d fsyncs, want 3", fail)
	}
	if segs := segmentFiles(t, dir); len(segs) != 1 {
		t.Fatalf("after a checkpoint that succeeded the journal holds %d segments, want the active one", len(segs))
	}
	rebooted := openJournaled(t, copyDir(t, dir), 1)
	if got := keyStates(t, rebooted, keys); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the checkpoint Open on a copy serves %v, want %v", got, want)
	}
}
