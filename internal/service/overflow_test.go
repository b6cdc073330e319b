package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/election"
	"anonradio/internal/history"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// TestRegisterOverflowingTagsRejected registers 2-node configurations whose
// one huge tag makes the canonical DRIP's round arithmetic overflow: each
// registration must fail with canonical.ErrRoundOverflow instead of
// panicking a builder goroutine, and the registry must go on admitting and
// serving other keys.
func TestRegisterOverflowingTagsRejected(t *testing.T) {
	r := New(Options{Shards: 2})
	t.Cleanup(r.Close)
	for _, tag := range []string{"4611686018427387904", "9223372036854775807", "6148914691236517205"} {
		cfg, err := config.Unmarshal(fmt.Sprintf("nodes 2\ntag 0 0\ntag 1 %s\nedge 0 1\n", tag))
		if err != nil {
			t.Fatalf("tag %s: %v", tag, err)
		}
		if err := r.Register("huge-"+tag, cfg); !errors.Is(err, canonical.ErrRoundOverflow) {
			t.Fatalf("tag %s: register returned %v, want ErrRoundOverflow", tag, err)
		}
		if _, err := r.Elect("huge-" + tag); !errors.Is(err, ErrUnknownKey) {
			t.Fatalf("tag %s: elect after a failed admission returned %v", tag, err)
		}
	}
	cfg := config.StaggeredClique(6)
	if err := r.Register("clique", cfg); err != nil {
		t.Fatal(err)
	}
	out, err := r.Elect("clique")
	if err != nil || !out.Elected() {
		t.Fatalf("elect after the rejected admissions: %+v, %v", out, err)
	}
}

// TestRegisterHugeSpanRejectedCheaply registers a 2-node path with tags
// {0, 10⁶}, whose round bound passes the round limit, and a 400-node path
// with tags 600·i, whose round bound 957,603 does not but whose code matrix
// would take 400·957,604 bytes (365 MiB), over canonical.MaxCodeMatrix.
// Each registration must fail with canonical.ErrRoundOverflow, having
// allocated under 1 MiB, where a build that ran would allocate about 48 MB
// of round plans for the first and leave about 400 MiB live for the
// second; the registry must go on admitting.
func TestRegisterHugeSpanRejectedCheaply(t *testing.T) {
	r := New(Options{Shards: 1, Builders: 1})
	t.Cleanup(r.Close)
	span, err := config.Unmarshal("nodes 2\ntag 0 0\ntag 1 1000000\nedge 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*config.Config{span, config.StaggeredPath(400, 600)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = r.Register("span", cfg)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, canonical.ErrRoundOverflow) {
			t.Fatalf("%d nodes: register returned %v, want ErrRoundOverflow", cfg.N(), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%d nodes: the rejected registration allocated %d bytes, want under 1 MiB", cfg.N(), alloc)
		}
	}
	if err := r.Register("small", config.StaggeredPath(8, 3)); err != nil {
		t.Fatalf("register after the rejections: %v", err)
	}
}

// compiledFor builds cfg's artifact; one past the code-matrix budget gets
// what a build without the guard would have journaled, as far as the load
// reads it before the guard: the blueprint and a placeholder leader
// history, with no phase table.
func compiledFor(t *testing.T, cfg *config.Config) *election.Compiled {
	t.Helper()
	if d, err := election.BuildDedicated(cfg); err == nil {
		return d.Compile()
	}
	rep, err := core.ClassifyTurbo(cfg, core.ClassifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &election.Compiled{
		ConfigName:     cfg.Name,
		Blueprint:      canonical.Blueprint{Sigma: cfg.Span(), Lists: rep.Lists},
		LeaderHistory:  history.Vector{history.Silent()},
		ExpectedLeader: rep.Leader,
	}
}

// TestRecoverySkipsOverBudgetEntry boots a durable registry on a journal
// that admits an over-budget configuration between two valid ones, as a
// journal written before the guard could: recovery must skip that entry,
// name it in the report, and serve the others.
func TestRecoverySkipsOverBudgetEntry(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	big := config.StaggeredPath(400, 600)
	for _, cfg := range []*config.Config{config.StaggeredClique(6), big, config.StaggeredPath(8, 3)} {
		rec := wire.WALAdmit{Key: cfg.Name, Config: cfg.Marshal(), Artifact: compiledFor(t, cfg)}
		if _, err := log.Write(wire.AppendWALAdmitFrame(nil, &rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	r, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if report.Admits != 2 || len(report.Skipped) != 1 || report.Skipped[0].Key != big.Name ||
		!strings.Contains(report.Skipped[0].Reason, "code matrix") {
		t.Fatalf("recovery report %+v, want 2 admits and %s skipped for its code matrix", report, big.Name)
	}
	for _, key := range []string{config.StaggeredClique(6).Name, config.StaggeredPath(8, 3).Name} {
		if out, err := r.Elect(key); err != nil || !out.Elected() {
			t.Fatalf("elect %s after recovery: %+v, %v", key, out, err)
		}
	}
	if _, err := r.Elect(big.Name); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("elect %s after recovery: %v, want ErrUnknownKey", big.Name, err)
	}
}

// TestRecoverySkipsInvalidArtifacts boots a durable registry on a journal
// whose admits carry artifacts Load rejects, between two valid ones, and
// restores a snapshot holding one and a JSON-era checkpoint whose embedded
// phase table was edited: recovery and restore must skip each such entry,
// name it in the report as an invalid artifact, and serve the others. Four
// of them (round bound, short history, message "2", local rounds)
// contradict their own protocol and used to be admitted and then fail
// every election, or elect while reporting wrong round figures. The binary
// encoder writes no phase table, so the table case is a JSON-era journal
// record, as an earlier release wrote it.
func TestRecoverySkipsInvalidArtifacts(t *testing.T) {
	cfg := config.StaggeredPath(8, 3)
	tampered := map[string]func(c *election.Compiled){
		"round-bound-3": func(c *election.Compiled) { c.RoundBound = 3 },
		"short-history": func(c *election.Compiled) { c.LeaderHistory = c.LeaderHistory[:len(c.LeaderHistory)-1] },
		"message-2":     func(c *election.Compiled) { c.LeaderHistory[1] = history.Received("2") },
		"local-rounds":  func(c *election.Compiled) { c.LocalRounds++ },
		"empty-history": func(c *election.Compiled) { c.LeaderHistory = nil },
		"table": func(c *election.Compiled) {
			d, err := election.BuildDedicated(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.PhaseTable = d.DRIP.Table()
			c.PhaseTable.Plans[0].Block = 1
		},
		"leader": func(c *election.Compiled) { c.ExpectedLeader = cfg.N() },
		"span":   func(c *election.Compiled) { c.Blueprint.Sigma++ },
	}
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAdmit := func(key string, c *election.Compiled) {
		frame := wire.AppendWALAdmitFrame(nil, &wire.WALAdmit{Key: key, Config: cfg.Marshal(), Artifact: c})
		if c.PhaseTable != nil {
			data, err := json.Marshal(walRecord{Op: walOpAdmit, Key: key, Config: cfg.Marshal(), Artifact: c})
			if err != nil {
				t.Fatal(err)
			}
			frame = data
		}
		if _, err := log.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	appendAdmit("valid-a", compiledFor(t, cfg))
	for key, tamper := range tampered {
		c := compiledFor(t, cfg)
		tamper(c)
		appendAdmit(key, c)
	}
	appendAdmit("valid-b", compiledFor(t, cfg))
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	r, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncAlways})
	if report.Admits != 2 || len(report.Skipped) != len(tampered) {
		t.Fatalf("recovery report %+v, want 2 admits and %d skipped", report, len(tampered))
	}
	for _, s := range report.Skipped {
		if _, ok := tampered[s.Key]; !ok || !strings.Contains(s.Reason, "invalid artifact") {
			t.Fatalf("skipped %+v, want a tampered key skipped as an invalid artifact", s)
		}
		if _, err := r.Elect(s.Key); !errors.Is(err, ErrUnknownKey) {
			t.Fatalf("elect %s after recovery: %v, want ErrUnknownKey", s.Key, err)
		}
	}
	for _, key := range []string{"valid-a", "valid-b"} {
		if out, err := r.Elect(key); err != nil || !out.Elected() {
			t.Fatalf("elect %s after recovery: %+v, %v", key, out, err)
		}
	}

	snap := t.TempDir()
	manifest, err := r.Snapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	entry := manifest.Entries[0]
	rewriteRecords(t, snap, func(rec *wire.WALAdmit) bool {
		if rec.Key == entry.Key {
			rec.Artifact.RoundBound = 3
		}
		return true
	})
	dst := New(Options{Shards: 1})
	t.Cleanup(dst.Close)
	restored, err := dst.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Entries != 1 || len(restored.Skipped) != 1 || restored.Skipped[0].Key != entry.Key ||
		!strings.Contains(restored.Skipped[0].Reason, "invalid artifact") {
		t.Fatalf("restore report %+v, want %s skipped as an invalid artifact and one entry restored", restored, entry.Key)
	}

	// JSON artifact files carry no CRC, so an edited table reaches Load.
	jsonDir := filepath.Join(copyJSONEra(t), CheckpointDirName)
	m, err := ReadManifest(jsonDir)
	if err != nil {
		t.Fatal(err)
	}
	edited := m.Entries[0]
	path := filepath.Join(jsonDir, edited.ArtifactFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := election.UnmarshalCompiled(data)
	if err != nil || c.PhaseTable == nil {
		t.Fatalf("%s: %v (phase table %v)", path, err, c != nil && c.PhaseTable != nil)
	}
	c.PhaseTable.Plans[len(c.PhaseTable.Plans)-1].Block = 0
	if data, err = json.Marshal(c); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	jsonDst := New(Options{Shards: 1})
	t.Cleanup(jsonDst.Close)
	if restored, err = jsonDst.Restore(jsonDir); err != nil {
		t.Fatal(err)
	}
	if restored.Entries != len(m.Entries)-1 || len(restored.Skipped) != 1 || restored.Skipped[0].Key != edited.Key ||
		!strings.Contains(restored.Skipped[0].Reason, "invalid artifact") || !strings.Contains(restored.Skipped[0].Reason, "phase table") {
		t.Fatalf("restore report %+v, want %s skipped for its phase table and the other entries restored", restored, edited.Key)
	}
}

// TestRegisterLongestSpanAllocs registers the longest span the round guard
// admits, a 2-node path with tags {0, 249999} (750,000 local rounds), on a
// fresh registry: the first admission must allocate under 30 MB. The build
// keeps one 16-byte round plan and one 1-byte decision-target entry per
// local round, and runs on one code matrix; a decision target that also
// held the leader's history as 24-byte entries took 41.9 MB.
func TestRegisterLongestSpanAllocs(t *testing.T) {
	cfg, err := config.Unmarshal("nodes 2\ntag 0 0\ntag 1 249999\nedge 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{Shards: 1, Builders: 1})
	t.Cleanup(r.Close)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = r.Register("longest", cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 30<<20 {
		t.Fatalf("the first admission allocated %d bytes, want under 30 MB", alloc)
	}
	if out, err := r.Elect("longest"); err != nil || !out.Elected() {
		t.Fatalf("elect: %+v, %v", out, err)
	}
}
