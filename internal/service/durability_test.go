package service

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/wal"
)

// openTestRegistry boots a durable registry in dir and registers cleanup.
func openTestRegistry(t *testing.T, dir string, opts WALOptions) (*Registry, *RecoveryReport) {
	t.Helper()
	opts.Dir = dir
	r, report, err := Open(Options{Shards: 2, WAL: opts})
	if err != nil {
		t.Fatalf("open durable registry: %v", err)
	}
	t.Cleanup(r.Close)
	return r, report
}

// electOutcomes snapshots (leader, rounds) for every key so a recovered
// registry can be compared bit-for-bit against the pre-crash one.
func electOutcomes(t *testing.T, r *Registry, keys []string) map[string][2]int {
	t.Helper()
	outs := make(map[string][2]int, len(keys))
	for _, key := range keys {
		out, err := r.Elect(key)
		if err != nil {
			t.Fatalf("elect %s: %v", key, err)
		}
		outs[key] = [2]int{out.Leader, out.Rounds}
	}
	return outs
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		t.Fatal("no journal segments on disk")
	}
	return paths
}

// TestOpenRoundTrip is the core durability contract: everything registered
// (and evicted) against a durable registry comes back bit-identical after a
// clean close and reopen, with a clean recovery report.
func TestOpenRoundTrip(t *testing.T) {
	for _, sync := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncBatch, wal.SyncOff} {
		t.Run(sync.String(), func(t *testing.T) {
			dir := t.TempDir()
			r, report := openTestRegistry(t, dir, WALOptions{Sync: sync})
			if report.CheckpointRestored || report.Journal.Records != 0 {
				t.Fatalf("fresh directory recovered state: %+v", report)
			}
			for key, cfg := range testConfigs() {
				if err := r.Register(key, cfg); err != nil {
					t.Fatalf("register %s: %v", key, err)
				}
			}
			if err := r.Register("doomed", config.StaggeredClique(4)); err != nil {
				t.Fatal(err)
			}
			if ok, err := r.Evict("doomed"); !ok || err != nil {
				t.Fatal("evict of a registered key failed")
			}
			keys := make([]string, 0, len(testConfigs()))
			for key := range testConfigs() {
				keys = append(keys, key)
			}
			want := electOutcomes(t, r, keys)
			r.Close()

			r2, report2 := openTestRegistry(t, dir, WALOptions{Sync: sync})
			if !report2.Clean() {
				t.Fatalf("recovery of a cleanly-closed journal is not clean: %+v", report2)
			}
			// The doomed admit+evict pair in the tail is compacted away:
			// replay never installs an entry it would immediately drop.
			if report2.Admits != len(keys) || report2.Evicts != 1 || report2.Compacted != 1 {
				t.Fatalf("replayed %d admits / %d evicts / %d compacted, want %d / 1 / 1",
					report2.Admits, report2.Evicts, report2.Compacted, len(keys))
			}
			if r2.Len() != len(keys) {
				t.Fatalf("recovered registry holds %d keys, want %d", r2.Len(), len(keys))
			}
			if out, _ := r2.Elect("doomed"); out.Err == nil {
				t.Fatal("evicted key came back from the journal")
			}
			if got := electOutcomes(t, r2, keys); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("recovered outcomes diverged:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestJournalCompaction pins the replay compaction rules on a churned
// journal: admit A, admit B, evict A, re-admit A under a different
// configuration. Replay applies only each key's newest record: the
// re-admitted A and B install, and A's first admit and its evict are
// compacted (the first admit's algorithm is never built).
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	r, _ := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if err := r.Register("a", config.StaggeredClique(6)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("b", config.StaggeredClique(9)); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Evict("a"); !ok || err != nil {
		t.Fatal("evict of a registered key failed")
	}
	// Re-admission under a different shape: the journal now reads
	// admit a(6), admit b(9), evict a, admit a(14).
	if err := r.Register("a", config.StaggeredClique(14)); err != nil {
		t.Fatal(err)
	}
	want := electOutcomes(t, r, []string{"a", "b"})
	r.Close()

	r2, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if !report.Clean() {
		t.Fatalf("recovery not clean: %+v", report)
	}
	// The re-admit of "a" is its newest record and sets its state; the
	// admit and the evict before it compact.
	if report.Admits != 2 || report.Evicts != 0 || report.Compacted != 2 {
		t.Fatalf("replayed %d admits / %d evicts / %d compacted, want 2 / 0 / 2",
			report.Admits, report.Evicts, report.Compacted)
	}
	if got := electOutcomes(t, r2, []string{"a", "b"}); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered outcomes diverged:\n got %v\nwant %v", got, want)
	}

	// An evict whose admit lives in the checkpoint, not the journal, must
	// never compact away: checkpoint the full registry, evict "b", and the
	// next boot has a journal holding only that evict.
	if err := r2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ok, err := r2.Evict("b"); !ok || err != nil {
		t.Fatal("evict after checkpoint failed")
	}
	r2.Close()

	r3, report3 := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if !report3.Clean() {
		t.Fatalf("post-checkpoint recovery not clean: %+v", report3)
	}
	if !report3.CheckpointRestored || report3.Evicts != 1 || report3.Compacted != 0 {
		t.Fatalf("post-checkpoint replay: %+v, want checkpoint restored, 1 evict, 0 compacted", report3)
	}
	if out, _ := r3.Elect("b"); out.Err == nil {
		t.Fatal("evict of a checkpoint-restored entry did not survive replay")
	}
	if got := electOutcomes(t, r3, []string{"a"}); got["a"] != want["a"] {
		t.Fatalf("key a diverged after checkpointed boot: %v want %v", got["a"], want["a"])
	}
}

// TestRecoveryTornTail cuts the final journal record mid-frame (a torn
// write) and asserts the next boot truncates the tail, reports it, and
// serves everything before the tear.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	r, _ := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if err := r.Register("keep", config.StaggeredClique(8)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("torn", config.StaggeredPath(6, 1)); err != nil {
		t.Fatal(err)
	}
	want := electOutcomes(t, r, []string{"keep"})
	r.Close()

	segs := segmentFiles(t, dir)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	r2, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if report.Clean() {
		t.Fatalf("recovery over a torn tail reported clean: %+v", report)
	}
	if report.Journal.TruncatedBytes == 0 || len(report.Journal.Faults) == 0 {
		t.Fatalf("torn tail not reported: %+v", report.Journal)
	}
	if report.Admits != 1 {
		t.Fatalf("replayed %d admits, want 1 (the record before the tear)", report.Admits)
	}
	if got := electOutcomes(t, r2, []string{"keep"}); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("surviving key diverged: %v vs %v", got, want)
	}
	if out, _ := r2.Elect("torn"); out.Err == nil {
		t.Fatal("the torn record's key is servable")
	}
	r2.Close()

	// The tail was physically truncated, so the next boot is clean.
	_, report3 := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if !report3.Clean() {
		t.Fatalf("second recovery still dirty: %+v", report3)
	}
}

// TestRecoveryCorruptInterior flips a byte inside the first of two journal
// records and asserts recovery resynchronizes: the corrupt record is
// skipped and reported, the record after it still applies.
func TestRecoveryCorruptInterior(t *testing.T) {
	dir := t.TempDir()
	r, _ := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if err := r.Register("corrupted", config.StaggeredClique(8)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("survivor", config.StaggeredPath(6, 1)); err != nil {
		t.Fatal(err)
	}
	want := electOutcomes(t, r, []string{"survivor"})
	r.Close()

	segs := segmentFiles(t, dir)
	data, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record (frame header is 12 bytes).
	if binary.LittleEndian.Uint32(data[4:8]) == 0 {
		t.Fatal("first record has no payload to corrupt")
	}
	data[12+5] ^= 0xFF
	if err := os.WriteFile(segs[len(segs)-1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if report.Clean() {
		t.Fatalf("recovery over interior corruption reported clean: %+v", report)
	}
	if report.Journal.SkippedBytes == 0 {
		t.Fatalf("corrupt record not skipped at the framing level: %+v", report.Journal)
	}
	if report.Admits != 1 {
		t.Fatalf("replayed %d admits, want 1 (the record after the corruption)", report.Admits)
	}
	if out, _ := r2.Elect("corrupted"); out.Err == nil {
		t.Fatal("the corrupt record's key is servable")
	}
	if got := electOutcomes(t, r2, []string{"survivor"}); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("survivor diverged: %v vs %v", got, want)
	}
}

// TestCheckpointTruncatesJournal checkpoints explicitly mid-stream and
// asserts the next boot restores the checkpoint and replays only the
// records journaled after it.
func TestCheckpointTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	r, _ := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	for i := 0; i < 3; i++ {
		if err := r.Register(fmt.Sprintf("pre-%d", i), config.StaggeredClique(5+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	st := r.WALStats()
	if st.Checkpoints != 1 || st.RecordsSinceCheckpoint != 0 {
		t.Fatalf("post-checkpoint stats: %+v", st)
	}
	if err := r.Register("post-0", config.StaggeredPath(7, 2)); err != nil {
		t.Fatal(err)
	}
	keys := []string{"pre-0", "pre-1", "pre-2", "post-0"}
	want := electOutcomes(t, r, keys)
	r.Close()

	r2, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if !report.CheckpointRestored || report.Checkpoint.Entries != 3 {
		t.Fatalf("checkpoint not restored: %+v", report)
	}
	if report.Admits != 1 {
		t.Fatalf("replayed %d admits, want only the post-checkpoint one", report.Admits)
	}
	if got := electOutcomes(t, r2, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered outcomes diverged:\n got %v\nwant %v", got, want)
	}
}

// TestWhitespaceNamesSurviveRecovery pins that an acknowledged admission
// whose configuration name holds white space is not lost: the journaled
// text must parse back, so each key survives Close/Open through journal
// replay and then through a checkpoint, with clean recovery reports.
func TestWhitespaceNamesSurviveRecovery(t *testing.T) {
	names := map[string]string{
		"space": "team A", "tab": "team\tA", "newline": "team\nA",
		"cr": "team\rA", "nbsp": "team\u00a0A", "line-separator": "team\u2028A",
	}
	keys := make([]string, 0, len(names))
	dir := t.TempDir()
	r, _ := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	for key, name := range names {
		cfg := config.StaggeredPath(5, 2)
		cfg.Name = name
		if err := r.Register(key, cfg); err != nil {
			t.Fatalf("register %s: %v", key, err)
		}
		keys = append(keys, key)
	}
	want := electOutcomes(t, r, keys)
	r.Close()

	r2, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if !report.Clean() || report.Admits != len(names) {
		t.Fatalf("journal replay: %d admits, report %+v", report.Admits, report)
	}
	if got := electOutcomes(t, r2, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed outcomes diverged:\n got %v\nwant %v", got, want)
	}
	if err := r2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	r2.Close()

	r3, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if !report.Clean() || !report.CheckpointRestored || report.Checkpoint.Entries != len(names) {
		t.Fatalf("checkpoint restore: %+v", report)
	}
	if got := electOutcomes(t, r3, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restored outcomes diverged:\n got %v\nwant %v", got, want)
	}
}

// TestRecoveryCheckpointJournalOverlap simulates a checkpoint that raced a
// crash: the snapshot committed but the journal segments it covers were
// never deleted, so every checkpointed admission is also replayed from the
// journal. Replay is idempotent, so the boot must converge to the same
// state with no loss and no error.
func TestRecoveryCheckpointJournalOverlap(t *testing.T) {
	dir := t.TempDir()
	r, _ := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	for i := 0; i < 3; i++ {
		if err := r.Register(fmt.Sprintf("k%d", i), config.StaggeredClique(5+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot into the checkpoint directory without rotating or deleting
	// journal segments — exactly the on-disk state of a crash between the
	// manifest commit and the segment deletion.
	if _, err := r.Snapshot(filepath.Join(dir, CheckpointDirName)); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := r.Register("k3", config.StaggeredPath(9, 1)); err != nil {
		t.Fatal(err)
	}
	keys := []string{"k0", "k1", "k2", "k3"}
	want := electOutcomes(t, r, keys)
	r.Close()

	r2, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if !report.CheckpointRestored {
		t.Fatalf("checkpoint not restored: %+v", report)
	}
	if !report.Clean() {
		t.Fatalf("overlapping checkpoint+journal recovery not clean: %+v", report)
	}
	if report.Admits != 4 {
		t.Fatalf("replayed %d admits, want all 4 (idempotent over the checkpoint)", report.Admits)
	}
	if r2.Len() != 4 {
		t.Fatalf("recovered %d keys, want 4", r2.Len())
	}
	if got := electOutcomes(t, r2, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered outcomes diverged:\n got %v\nwant %v", got, want)
	}
}

// TestCheckpointRecordTrigger configures a record-count checkpoint trigger
// and asserts the background checkpointer fires without a timer.
func TestCheckpointRecordTrigger(t *testing.T) {
	dir := t.TempDir()
	r, _ := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncOff, CheckpointRecords: 4})
	for i := 0; i < 6; i++ {
		if err := r.Register(fmt.Sprintf("k%d", i), config.StaggeredClique(4+i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.WALStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("record-count trigger never checkpointed: %+v", r.WALStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := r.WALStats()
	if st.LastCheckpointSeconds <= 0 {
		t.Fatalf("checkpoint duration not recorded: %+v", st)
	}
}

// TestDurableSteadyStateAllocs pins the acceptance constraint that enabling
// the journal costs the serve path nothing: steady-state elections on a
// WAL-enabled registry stay zero-alloc (appends happen on builder and
// evictor goroutines only).
func TestDurableSteadyStateAllocs(t *testing.T) {
	r, _ := openTestRegistry(t, t.TempDir(), WALOptions{Sync: wal.SyncAlways})
	if err := r.Register("a", config.StaggeredClique(12)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("b", config.StaggeredPath(9, 1)); err != nil {
		t.Fatal(err)
	}
	i := 0
	keys := [2]string{"a", "b"}
	run := func() {
		i++
		out, err := r.Elect(keys[i%2])
		if err != nil || !out.Elected() {
			t.Fatalf("elect %s: %+v %v", keys[i%2], out, err)
		}
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state election on a durable registry allocates %.1f times, want 0", allocs)
	}
}

// TestWALStatsDisabled pins the non-durable zero value.
func TestWALStatsDisabled(t *testing.T) {
	r := New(Options{Shards: 1})
	defer r.Close()
	if st := r.WALStats(); st.Enabled {
		t.Fatalf("non-durable registry reports WAL enabled: %+v", st)
	}
	if err := r.Checkpoint(); err == nil {
		t.Fatal("checkpoint on a non-durable registry did not fail")
	}
}

// crashHelperEnv marks the re-executed test binary as the churn subprocess.
const crashHelperEnv = "ANONRADIO_CRASH_HELPER_DIR"

// TestCrashChurnHelper is not a test: it is the subprocess body for
// TestKill9Recovery, selected by crashHelperEnv. It opens a durable
// registry with the strictest sync policy and registers keys forever,
// printing one "acked <key> <leader> <rounds>" line per acknowledged
// admission, until the parent kills it.
func TestCrashChurnHelper(t *testing.T) {
	dir := os.Getenv(crashHelperEnv)
	if dir == "" {
		t.Skip("subprocess helper for TestKill9Recovery")
	}
	r, _, err := Open(Options{Shards: 2, WAL: WALOptions{Dir: dir, Sync: wal.SyncAlways}})
	if err != nil {
		fmt.Printf("open: %v\n", err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		key := fmt.Sprintf("churn-%04d", i)
		if err := r.Register(key, config.StaggeredClique(4+i%13)); err != nil {
			fmt.Printf("register %s: %v\n", key, err)
			os.Exit(1)
		}
		out, err := r.Elect(key)
		if err != nil {
			fmt.Printf("elect %s: %v\n", key, err)
			os.Exit(1)
		}
		// The register call returned, so the admission is acknowledged and
		// — under SyncAlways — on stable storage. Anything printed here
		// must survive the kill.
		fmt.Printf("acked %s %d %d\n", key, out.Leader, out.Rounds)
	}
}

// TestKill9Recovery is the crash-recovery acceptance test: a subprocess
// churns admissions against a durable registry, the parent SIGKILLs it
// mid-churn (no drain, no deferred close, no flush), reopens the same
// journal directory, and asserts every acknowledged admission is present
// with a bit-identical election outcome.
func TestKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChurnHelper$", "-test.v=false")
	cmd.Env = append(os.Environ(), crashHelperEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	guard := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	defer guard.Stop()

	type acked struct{ leader, rounds int }
	want := map[string]acked{}
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		var key string
		var a acked
		if _, err := fmt.Sscanf(line, "acked %s %d %d", &key, &a.leader, &a.rounds); err != nil {
			t.Fatalf("unexpected helper output %q", line)
		}
		want[key] = a
		if len(want) >= 25 {
			break
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) < 25 {
		t.Fatalf("helper exited after only %d acks", len(want))
	}
	// Kill without warning, mid-churn — very likely mid-append.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	r, report, err := Open(Options{Shards: 2, WAL: WALOptions{Dir: dir, Sync: wal.SyncAlways}})
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	defer r.Close()
	// A torn final record (the in-flight append) is legal; lost
	// acknowledged records are not.
	if report.Admits < len(want) {
		t.Fatalf("recovered %d admits, want at least the %d acknowledged", report.Admits, len(want))
	}
	for key, a := range want {
		out, err := r.Elect(key)
		if err != nil {
			t.Fatalf("acknowledged key %s lost after kill -9: %v", key, err)
		}
		if out.Leader != a.leader || out.Rounds != a.rounds {
			t.Fatalf("%s diverged after crash recovery: got leader=%d rounds=%d, acked leader=%d rounds=%d",
				key, out.Leader, out.Rounds, a.leader, a.rounds)
		}
	}
	if strings.Contains(fmt.Sprint(report.Skipped), "churn-") && len(report.Skipped) > 1 {
		t.Fatalf("recovery skipped journaled churn records: %+v", report.Skipped)
	}
}

// BenchmarkWALReplayRecovery measures Open on a churned journal with no
// checkpoint, the replay a restart after a crash pays: 16 keys each
// admitted four times under rotating configurations, every fourth key
// then evicted. Each iteration removes the segment its Open created, so
// every Open replays the same journal.
func BenchmarkWALReplayRecovery(b *testing.B) {
	dir := b.TempDir()
	opts := Options{Shards: 2, WAL: WALOptions{Dir: dir, Sync: wal.SyncOff, CheckpointRecords: -1}}
	r, _, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := []*config.Config{config.StaggeredClique(6), config.StaggeredPath(8, 1), config.LineFamilyG(6), config.StaggeredClique(9)}
	for round := 0; round < 4; round++ {
		for k := 0; k < 16; k++ {
			if err := r.Register(fmt.Sprintf("churn-%02d", k), cfgs[(k+round)%len(cfgs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	for k := 0; k < 16; k += 4 {
		if ok, err := r.Evict(fmt.Sprintf("churn-%02d", k)); !ok || err != nil {
			b.Fatalf("evict: %v %v", ok, err)
		}
	}
	r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, report, err := Open(opts)
		if err != nil || report.Journal.Records != 68 {
			b.Fatalf("open: %v, %+v", err, report)
		}
		b.StopTimer()
		r.Close()
		segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
		if err != nil || len(segs) != 2 {
			b.Fatalf("segments after a reopen: %v, %v", segs, err)
		}
		sort.Strings(segs)
		if err := os.Remove(segs[1]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
