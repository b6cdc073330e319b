package anonradio

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFacadeService exercises the sharded election service through the
// public API: admission by build and by compiled artifact, single and batch
// serving, per-shard stats, and agreement with the one-shot Elect paths on
// every engine.
func TestFacadeService(t *testing.T) {
	svc := NewService(ServiceOptions{Shards: 3})
	defer svc.Close()

	arena := NewBuildArena()
	keys := make([]string, 0, 6)
	expected := map[string]int{}
	for i, cfg := range []*Config{
		StaggeredClique(8),
		StaggeredPath(7, 2),
		LineFamilyG(2),
		StaggeredClique(5),
	} {
		key := fmt.Sprintf("cfg-%d", i)
		// Build through the arena first so the facade arena path is covered,
		// then admit the same configuration into the service.
		d, err := BuildElectionInto(arena, cfg)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		expected[key] = d.ExpectedLeader
		if i%2 == 0 {
			if err := svc.Register(key, cfg); err != nil {
				t.Fatalf("register %s: %v", key, err)
			}
		} else {
			if err := svc.RegisterCompiled(key, CompileElection(d), cfg); err != nil {
				t.Fatalf("register compiled %s: %v", key, err)
			}
		}
		keys = append(keys, key)

		out, err := svc.Elect(key)
		if err != nil {
			t.Fatalf("elect %s: %v", key, err)
		}
		if out.Leader != d.ExpectedLeader {
			t.Fatalf("%s: service elected %d, want %d", key, out.Leader, d.ExpectedLeader)
		}
		direct, _, err := Elect(cfg)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if direct.Leader() != out.Leader || direct.Rounds != out.Rounds {
			t.Fatalf("%s: Elect (%d, %d rounds) disagrees with service (%d, %d rounds)",
				key, direct.Leader(), direct.Rounds, out.Leader, out.Rounds)
		}
	}

	outs, err := svc.ElectBatch(keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Leader != expected[keys[i]] {
			t.Fatalf("batch slot %d (%s): leader %d, want %d", i, keys[i], out.Leader, expected[keys[i]])
		}
	}

	stats, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	total := ServiceTotals(stats)
	wantElections := int64(len(keys)) * 2 // one warm-up each + one batch each
	if total.Elections != wantElections || total.Configs != len(keys) {
		t.Fatalf("totals %+v, want %d elections over %d configs", total, wantElections, len(keys))
	}
	if svc.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", svc.Shards())
	}
}

// TestFacadeServiceAsyncAdmission exercises the async admission flow —
// submit, poll to a terminal state, serve — through the public API.
func TestFacadeServiceAsyncAdmission(t *testing.T) {
	svc := NewService(ServiceOptions{Shards: 2, Builders: 1})
	defer svc.Close()
	if err := svc.RegisterAsync("clique", StaggeredClique(9)); err != nil {
		t.Fatal(err)
	}
	for !svc.AdmissionStatus("clique").State.Terminal() {
		time.Sleep(time.Millisecond)
	}
	if st := svc.AdmissionStatus("clique"); st.State != ServiceAdmissionDone {
		t.Fatalf("async admission ended %s: %v", st.State, st.Err)
	}
	out, err := svc.Elect("clique")
	if err != nil || !out.Elected() {
		t.Fatalf("elect after async admission: %+v %v", out, err)
	}
	if st := svc.AdmissionStatus("never"); st.State != ServiceAdmissionUnknown {
		t.Fatalf("unsubmitted key reported %s", st.State)
	}
	ast := svc.AdmissionStats()
	if ast.Submitted != 1 || ast.Completed != 1 || ast.Builders != 1 {
		t.Fatalf("admission stats %+v", ast)
	}
}

// TestParseCompiledElectionReadsSnapshotArtifacts pins what `elect
// -compiled` relies on: every persisted form of one key parses and elects
// the leader and round count the registry serves — the JSON artifact and
// configuration files of a JSON-era checkpoint, and the admit frame that a
// snapshot's entries file holds (cut out at the manifest's offset) and
// that the artifact export serves, which carries its configuration.
func TestParseCompiledElectionReadsSnapshotArtifacts(t *testing.T) {
	jsonEra := filepath.Join("internal", "service", "testdata", "json-era", "checkpoint")
	svc := NewService(ServiceOptions{Shards: 2})
	defer svc.Close()
	if report, err := RestoreService(svc, jsonEra); err != nil || report.Entries != 3 {
		t.Fatalf("restoring the JSON-era checkpoint: %+v, %v", report, err)
	}
	served, err := svc.Elect("era1-a")
	if err != nil || !served.Elected() {
		t.Fatalf("served era1-a: %+v, %v", served, err)
	}
	check := func(form string, c *CompiledElection, cfg *Config) {
		t.Helper()
		out, _, err := ElectCompiled(c, cfg)
		if err != nil {
			t.Fatalf("electing from %s: %v", form, err)
		}
		if out.Leader() != served.Leader || out.Rounds != served.Rounds {
			t.Fatalf("%s elected %d in %d rounds, the registry serves %d in %d",
				form, out.Leader(), out.Rounds, served.Leader, served.Rounds)
		}
	}

	data, err := os.ReadFile(filepath.Join(jsonEra, "0000.artifact.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseCompiledElection(data)
	if err != nil {
		t.Fatalf("parsing the JSON-era artifact: %v", err)
	}
	text, err := os.ReadFile(filepath.Join(jsonEra, "0000.config.txt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfig(strings.NewReader(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	check("the JSON-era files", c, cfg)

	snapDir := t.TempDir()
	manifest, err := SnapshotService(svc, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	first := manifest.Entries[0]
	if first.Key != "era1-a" {
		t.Fatalf("first snapshot entry %+v, want era1-a", first)
	}
	entries, err := os.ReadFile(filepath.Join(snapDir, manifest.EntriesFile))
	if err != nil {
		t.Fatal(err)
	}
	exported, err := svc.ExportArtifact("era1-a")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		form  string
		frame []byte
	}{
		{"the entries file's frame", entries[first.Offset : first.Offset+int64(first.Length)]},
		{"the exported frame", exported},
	} {
		c, cfg, err := ParseCompiledEntry(f.frame)
		if err != nil || cfg == nil {
			t.Fatalf("parsing %s: %v (configuration %v)", f.form, err, cfg)
		}
		check(f.form, c, cfg)
		if c2, err := ParseCompiledElection(f.frame); err != nil || c2.ExpectedLeader != c.ExpectedLeader {
			t.Fatalf("ParseCompiledElection on %s: %v", f.form, err)
		}
	}
	if _, _, err := ParseCompiledEntry(exported[:len(exported)-1]); err == nil {
		t.Fatal("a truncated admit frame parsed")
	}
}
