package service

import (
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/wire"
)

// TestRecoveryLoadsEachKeyOnce checkpoints a, b and c, then journals a
// re-admission of a in a new shape and an eviction of b. Recovery is one
// run of records, so Open loads a from the journal, never loads the
// checkpoint entries of a and b, and loads c from the checkpoint: two
// artifact loads for the two keys it serves.
func TestRecoveryLoadsEachKeyOnce(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"a", "b", "c"}
	r := openJournaled(t, dir, 1)
	for _, key := range keys {
		if err := r.Register(key, config.StaggeredClique(5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", config.StaggeredPath(7, 2)); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Evict("b"); !ok || err != nil {
		t.Fatalf("evict b: %v %v", ok, err)
	}
	want := keyStates(t, r, keys)
	r.Close()

	got, report, err := Open(Options{Shards: 2, WAL: WALOptions{Dir: dir, CheckpointRecords: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(got.Close)
	if !report.Clean() {
		t.Fatalf("recovery damage: %+v", report)
	}
	if loads := got.AdmissionStats().ArtifactLoads; loads != 2 || got.Len() != 2 {
		t.Fatalf("Open loaded %d artifacts and serves %d keys, want 2 and 2", loads, got.Len())
	}
	if report.Checkpoint.Entries != 1 || report.Admits != 1 || report.Evicts != 1 || report.Compacted != 0 {
		t.Fatalf("recovery report %+v, want 1 checkpoint entry, 1 admit, 1 evict", report)
	}
	if states := keyStates(t, got, keys); !reflect.DeepEqual(states, want) {
		t.Fatalf("Open serves %v, want %v", states, want)
	}
}

// TestRecoveryDamageAcrossSources damages the checkpoint entry of key k in
// the four ways a run can meet it. A rejected entry with no journal record
// of k is listed in Checkpoint.Skipped. A newer journal admit of k that
// applies supersedes the entry, which is then never read and not listed.
// A rejected newer admit falls back to the entry, and both are listed with
// k absent. An entry missing from the entries file is framing damage and
// is listed even when the journal re-admits k.
func TestRecoveryDamageAcrossSources(t *testing.T) {
	reject := func(rec *wire.WALAdmit) bool {
		if rec.Key == "k" {
			rec.Artifact.RoundBound = 3
		}
		return true
	}
	drop := func(rec *wire.WALAdmit) bool { return rec.Key != "k" }
	readmit := func(t *testing.T, r *Registry) {
		if err := r.Register("k", config.StaggeredPath(7, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name       string
		edit       func(rec *wire.WALAdmit) bool
		journal    func(t *testing.T, r *Registry)
		ckSkipped  string // the reason k's listing names; "" for none
		skipped    int    // journal records listed
		journaledK bool   // k serves the journal's admission; absent if false
	}{
		{"rejected entry", reject, func(*testing.T, *Registry) {}, "loading artifact", 0, false},
		{"rejected entry superseded", reject, readmit, "", 0, true},
		{"rejected entry and admit", reject, func(t *testing.T, r *Registry) {
			writeRejectedAdmit(t, r, "k", config.StaggeredPath(7, 2))
		}, "loading artifact", 1, false},
		{"missing entry superseded", drop, readmit, "no admit record", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := openJournaled(t, dir, 1)
			for i, key := range []string{"k", "kept"} {
				if err := r.Register(key, config.StaggeredClique(5+i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			tc.journal(t, r)
			want := keyStates(t, r, []string{"k", "kept"})
			r.Close()
			rewriteRecords(t, filepath.Join(dir, CheckpointDirName), tc.edit)

			got, report, err := Open(Options{Shards: 2, WAL: WALOptions{Dir: dir, CheckpointRecords: -1}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(got.Close)
			ck := report.Checkpoint
			if tc.ckSkipped == "" {
				if len(ck.Skipped) != 0 {
					t.Fatalf("checkpoint skipped %+v, want none", ck.Skipped)
				}
			} else if len(ck.Skipped) != 1 || ck.Skipped[0].Key != "k" || !strings.Contains(ck.Skipped[0].Reason, tc.ckSkipped) {
				t.Fatalf("checkpoint skipped %+v, want k for %q", ck.Skipped, tc.ckSkipped)
			}
			if ck.Entries != 1 || len(report.Skipped) != tc.skipped {
				t.Fatalf("recovery report %+v, want 1 checkpoint entry and %d skipped records", report, tc.skipped)
			}
			states := keyStates(t, got, []string{"k", "kept"})
			if states["kept"] != want["kept"] || !states["kept"].present {
				t.Fatalf("kept serves %+v, want %+v", states["kept"], want["kept"])
			}
			if tc.journaledK && states["k"] != want["k"] || !tc.journaledK && states["k"].present {
				t.Fatalf("k serves %+v (journaled admission %+v)", states["k"], want["k"])
			}
			if loads := got.AdmissionStats().ArtifactLoads; loads != int64(got.Len()) {
				t.Fatalf("Open loaded %d artifacts for %d keys", loads, got.Len())
			}
		})
	}
}

// TestRebuildBesideParkedSnapshot parks a snapshot in its first fsync,
// through the registry's sync hook, and requires a rebuild-in-place
// admission to complete meanwhile: a snapshot encodes each entry under the
// entry's read lock, and no fence holds builders off for the length of its
// writes. GC is held off so the retired pool keeps the evicted algorithm;
// under -race a pool drops some puts, so the evict → re-register cycle
// repeats until a build counts a rebuild hit.
func TestRebuildBesideParkedSnapshot(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := New(Options{Shards: 1})
	t.Cleanup(r.Close)
	cfg := config.StaggeredClique(8)
	for _, key := range []string{"churn", "kept"} {
		if err := r.Register(key, cfg); err != nil {
			t.Fatal(err)
		}
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var park sync.Once
	r.syncHook = func(string) error {
		park.Do(func() {
			close(parked)
			<-release
		})
		return nil
	}
	unpark := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark) // a failed check must not leave the snapshot parked
	dir := t.TempDir()
	snapped := make(chan error, 1)
	go func() {
		_, err := r.Snapshot(dir)
		snapped <- err
	}()
	<-parked

	hits := r.AdmissionStats().RebuildHits
	rebuilt := make(chan error, 1)
	go func() {
		for r.AdmissionStats().RebuildHits == hits {
			if _, err := r.Evict("churn"); err != nil {
				rebuilt <- err
				return
			}
			if err := r.Register("churn", cfg); err != nil {
				rebuilt <- err
				return
			}
		}
		rebuilt <- nil
	}()
	select {
	case err := <-rebuilt:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a rebuild-in-place admission waited 5 s for a snapshot parked in its fsync")
	}
	unpark()
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
	dst := New(Options{Shards: 1})
	t.Cleanup(dst.Close)
	if report, err := dst.Restore(dir); err != nil || report.Entries != 2 || len(report.Skipped) != 0 {
		t.Fatalf("restore of the snapshot: %+v, %v", report, err)
	}
}
