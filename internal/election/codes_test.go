package election_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/drip"
	"anonradio/internal/election"
	"anonradio/internal/graph"
	"anonradio/internal/history"
	"anonradio/internal/radio"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// checkLoadedTarget loads c and compares the code target with want's, and
// the loaded election's leader and rounds with want's.
func checkLoadedTarget(t *testing.T, name string, c *election.Compiled, cfg *config.Config, want *election.Dedicated) {
	t.Helper()
	d, err := election.Load(c, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(d.CodeTarget(), want.CodeTarget()) {
		t.Fatalf("%s: code target %v, build's %v", name, d.CodeTarget(), want.CodeTarget())
	}
	var out radio.ElectionOutcome
	if err := d.ElectInto(&out, radio.Options{}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := d.Verify(&out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var ref radio.ElectionOutcome
	if err := want.ElectInto(&ref, radio.Options{}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if out.Leader() != ref.Leader() || out.Rounds != ref.Rounds {
		t.Fatalf("%s: elected %d in %d rounds, a fresh build %d in %d", name, out.Leader(), out.Rounds, ref.Leader(), ref.Rounds)
	}
}

// TestCodeTargetFromArtifacts pins that an artifact's loaders derive the
// same code target as the build, from JSON and binary artifacts alike, and
// that the leader history Compile decodes from the code target codes back
// to it.
func TestCodeTargetFromArtifacts(t *testing.T) {
	for _, cfg := range []*config.Config{
		config.StaggeredClique(9),
		config.LineFamilyG(3),
		config.StaggeredPath(7, 2),
		config.SpanFamilyH(3),
	} {
		d, err := election.BuildDedicated(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := d.Compile()
		if got := c.LeaderHistory.AppendCodes(nil, "1"); !bytes.Equal(got, d.CodeTarget()) || len(got) != d.LocalRounds+1 {
			t.Fatalf("%s: code target %v, leader history codes %v", cfg, d.CodeTarget(), got)
		}
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, err := election.UnmarshalCompiled(data)
		if err != nil {
			t.Fatal(err)
		}
		checkLoadedTarget(t, cfg.String()+" json", fromJSON, d.Config, d)
		fromBin, err := wire.DecodeArtifact(wire.AppendArtifact(nil, c))
		if err != nil {
			t.Fatal(err)
		}
		checkLoadedTarget(t, cfg.String()+" binary", fromBin, d.Config, d)
	}
}

// TestDecisionSharesCodeTarget pins that the decision target exists once:
// on every build path and Load, the decision function's Target is the
// algorithm's code target, the same bytes.
func TestDecisionSharesCodeTarget(t *testing.T) {
	cfg := config.StaggeredClique(7)
	built, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arena := election.NewBuildArena()
	fromArena, err := election.BuildDedicatedInto(arena, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := arena.RebuildInto(fromArena, config.LineFamilyG(3))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := election.Load(built.Compile(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*election.Dedicated{"build": built, "rebuild": rebuilt, "Load": loaded} {
		match, ok := d.Algorithm.Decision.(drip.HistoryMatchDecision)
		if !ok {
			t.Fatalf("%s: decision is %T", name, d.Algorithm.Decision)
		}
		if len(match.Target) == 0 || &match.Target[0] != &d.CodeTarget()[0] || len(match.Target) != len(d.CodeTarget()) || match.Message != "1" {
			t.Fatalf("%s: decision target %v (message %q) is not the code target %v", name, match.Target, match.Message, d.CodeTarget())
		}
	}
}

// TestCodeTargetFromJSONEraArtifacts loads the checked-in JSON-era
// checkpoint's artifacts: their code targets equal a fresh build's.
func TestCodeTargetFromJSONEraArtifacts(t *testing.T) {
	dir := filepath.Join("..", "service", "testdata", "json-era", "checkpoint")
	arts, err := filepath.Glob(filepath.Join(dir, "*.artifact.json"))
	if err != nil || len(arts) == 0 {
		t.Fatalf("no JSON-era artifacts in %s: %v", dir, err)
	}
	for _, path := range arts {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := election.UnmarshalCompiled(data)
		if err != nil {
			t.Fatal(err)
		}
		text, err := os.ReadFile(strings.TrimSuffix(path, ".artifact.json") + ".config.txt")
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := config.Unmarshal(string(text))
		if err != nil {
			t.Fatal(err)
		}
		want, err := election.BuildDedicated(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkLoadedTarget(t, filepath.Base(path), c, cfg, want)
	}
}

// TestCodeTargetRejectsForeignEntries loads an artifact whose leader history
// carries a foreign message where the target has the canonical one. No run
// of the protocol records that entry, so no node could ever match the
// target: Load rejects the artifact, naming the entry and its round,
// instead of admitting an algorithm that never elects.
func TestCodeTargetRejectsForeignEntries(t *testing.T) {
	d, err := election.BuildDedicated(config.StaggeredClique(6))
	if err != nil {
		t.Fatal(err)
	}
	c := d.Compile()
	i := slicesIndexMessage(c.LeaderHistory)
	if i < 0 {
		t.Fatalf("leader history %s has no message", c.LeaderHistory)
	}
	c.LeaderHistory[i] = history.Received("2")
	want := fmt.Sprintf(`leader history has ("2") in local round %d`, i)
	loaded, err := election.Load(c, d.Config)
	if loaded != nil || !errors.Is(err, election.ErrInvalidArtifact) || !strings.Contains(err.Error(), want) {
		t.Fatalf("loaded %v, error %v; want ErrInvalidArtifact naming %q", loaded != nil, err, want)
	}
}

// TestLoadRejectsInconsistentArtifacts tampers with one field of a built
// artifact at a time. Every tampered artifact is rejected by Load with
// ErrInvalidArtifact, and an over-budget one also with
// canonical.ErrRoundOverflow; the untouched artifact loads and elects.
// The first four cases used to load and then fail every election. Compile
// writes no phase table, so the table case attaches an edited copy of the
// compiled one, as an artifact of an earlier release would carry it.
func TestLoadRejectsInconsistentArtifacts(t *testing.T) {
	cfg := config.LineFamilyG(3)
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	huge := config.MustNew(graph.Path(2), []int{0, 1_000_000})
	for _, tc := range []struct {
		name   string
		tamper func(c *election.Compiled) *config.Config
		substr string
	}{
		{"round bound 3", func(c *election.Compiled) *config.Config { c.RoundBound = 3; return cfg }, "round bound 3"},
		{"leader history one entry short", func(c *election.Compiled) *config.Config {
			c.LeaderHistory = c.LeaderHistory[:len(c.LeaderHistory)-1]
			return cfg
		}, "leader history has"},
		{"leader history message 2", func(c *election.Compiled) *config.Config {
			c.LeaderHistory[1] = history.Received("2")
			return cfg
		}, "never records"},
		{"leader history entry of unknown kind", func(c *election.Compiled) *config.Config {
			c.LeaderHistory[0] = history.Entry{Kind: 7}
			return cfg
		}, "never records"},
		{"local rounds", func(c *election.Compiled) *config.Config { c.LocalRounds++; return cfg }, "local rounds"},
		{"empty leader history", func(c *election.Compiled) *config.Config { c.LeaderHistory = nil; return cfg }, "leader history has 0 entries"},
		{"phase table disagrees with the lists", func(c *election.Compiled) *config.Config {
			c.PhaseTable = legacyTable(t, d)
			c.PhaseTable.Matches[0].Rows[0].Expect[0] ^= 1
			return cfg
		}, "phase table"},
		{"leader out of range", func(c *election.Compiled) *config.Config { c.ExpectedLeader = cfg.N(); return cfg }, "out of range"},
		{"span mismatch", func(c *election.Compiled) *config.Config { return config.SpanFamilyH(3) }, "span"},
		{"over the round limit", func(c *election.Compiled) *config.Config {
			c.Blueprint.Sigma = 1_000_000
			return huge
		}, "overflow"},
	} {
		data, err := json.Marshal(d.Compile())
		if err != nil {
			t.Fatal(err)
		}
		c, err := election.UnmarshalCompiled(data)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := election.Load(c, tc.tamper(c))
		if loaded != nil || !errors.Is(err, election.ErrInvalidArtifact) || !strings.Contains(err.Error(), tc.substr) {
			t.Fatalf("%s: loaded %v, error %v; want ErrInvalidArtifact naming %q", tc.name, loaded != nil, err, tc.substr)
		}
		if tc.substr == "overflow" && !errors.Is(err, canonical.ErrRoundOverflow) {
			t.Fatalf("%s: %v does not wrap ErrRoundOverflow", tc.name, err)
		}
	}
	checkLoadedTarget(t, "untouched", d.Compile(), cfg, d)
}

// legacyTable returns a copy of d's compiled phase table, as an earlier
// release embedded it in d's artifact.
func legacyTable(t *testing.T, d *election.Dedicated) *canonical.PhaseTable {
	t.Helper()
	data, err := json.Marshal(d.DRIP.Table())
	if err != nil {
		t.Fatal(err)
	}
	var pt canonical.PhaseTable
	if err := json.Unmarshal(data, &pt); err != nil {
		t.Fatal(err)
	}
	return &pt
}

// legacyArtifact is one artifact an earlier release wrote into the
// checked-in fixtures, with its phase table and digest.
type legacyArtifact struct {
	name string
	cfg  *config.Config
	data []byte // the artifact in its encoding: JSON or a wire payload
	// decode returns a fresh copy of the artifact decoded from data.
	decode func(data []byte) (*election.Compiled, error)
}

// legacyArtifacts reads every artifact of the JSON-era and table-era
// fixtures (internal/service/testdata): their checkpoints' artifact files
// and their journals' admit records.
func legacyArtifacts(t *testing.T) []legacyArtifact {
	t.Helper()
	var arts []legacyArtifact
	add := func(name, cfgText string, data []byte, decode func([]byte) (*election.Compiled, error)) {
		cfg, err := config.Unmarshal(cfgText)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		arts = append(arts, legacyArtifact{name: name, cfg: cfg, data: data, decode: decode})
	}
	for _, era := range []string{"json-era", "table-era"} {
		dir := filepath.Join("..", "service", "testdata", era)
		files, err := filepath.Glob(filepath.Join(dir, "checkpoint", "*.artifact.*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no checkpoint artifacts in %s: %v", dir, err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			text, err := os.ReadFile(path[:strings.Index(path, ".artifact.")] + ".config.txt")
			if err != nil {
				t.Fatal(err)
			}
			add(era+"/"+filepath.Base(path), string(text), data, wire.DecodeArtifactAuto)
		}
		// Replay a copy: a replay truncates torn tails in place.
		journal := t.TempDir()
		segments, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
		if err != nil || len(segments) == 0 {
			t.Fatalf("no journal in %s: %v", dir, err)
		}
		for _, seg := range segments {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(journal, filepath.Base(seg)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := wal.Replay(journal, func(payload []byte) error {
			name := fmt.Sprintf("%s/journal record %d", era, len(arts))
			if !wire.IsFrame(payload) {
				var rec struct {
					Op, Config string
					Artifact   json.RawMessage
				}
				if err := json.Unmarshal(payload, &rec); err != nil {
					return err
				}
				if rec.Op == "admit" {
					add(name, rec.Config, rec.Artifact, election.UnmarshalCompiled)
				}
				return nil
			}
			typ, body, _, err := wire.DecodeFrame(payload)
			if err != nil || typ != wire.FrameWALAdmit {
				return err
			}
			var rec wire.WALAdmit
			if err := rec.DecodeFrom(body); err != nil {
				return err
			}
			add(name, rec.Config, body, func(body []byte) (*election.Compiled, error) {
				var rec wire.WALAdmit
				err := rec.DecodeFrom(body)
				return rec.Artifact, err
			})
			return nil
		}); err != nil {
			t.Fatalf("%s: replaying the journal: %v", era, err)
		}
	}
	return arts
}

// TestLoadIgnoresArtifactDigest loads every artifact of the checked-in
// fixtures earlier releases wrote, each with a phase table and a digest
// over the blueprint and the table. The digest decides nothing: a faithful
// table loads and elects as a fresh build does whatever the digest says,
// and a table edited in memory is refused with ErrInvalidArtifact even
// under the digest the untouched artifact was written with.
func TestLoadIgnoresArtifactDigest(t *testing.T) {
	arts := legacyArtifacts(t)
	if len(arts) != 12 {
		t.Fatalf("read %d fixture artifacts, want 12 (3 checkpoint entries and 3 journal admits per fixture)", len(arts))
	}
	for _, a := range arts {
		want, err := election.BuildDedicated(a.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, digest := range []string{"recorded", "", "not-hex", "00000000000000ff"} {
			c, err := a.decode(a.data)
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			if c.PhaseTable == nil || c.ArtifactDigest == "" {
				t.Fatalf("%s: the fixture artifact has no phase table or no digest", a.name)
			}
			if digest != "recorded" {
				c.ArtifactDigest = digest
			}
			checkLoadedTarget(t, a.name+" with digest "+digest, c, a.cfg, want)
		}
		c, err := a.decode(a.data)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		c.PhaseTable.Plans[len(c.PhaseTable.Plans)-1].Block = 0
		if loaded, err := election.Load(c, a.cfg); loaded != nil || !errors.Is(err, election.ErrInvalidArtifact) || !strings.Contains(err.Error(), "phase table") {
			t.Fatalf("%s: an edited table under the recorded digest loaded %v, error %v; want ErrInvalidArtifact naming the phase table", a.name, loaded != nil, err)
		}
	}
}

// TestLoadRejectsStaleTable pins that an embedded table is checked against
// the lists it travels with: a table left stale while the blueprint's lists
// were regenerated with the same shape (same phases, same classes per
// phase, so the round counts still agree) is refused.
func TestLoadRejectsStaleTable(t *testing.T) {
	d, err := election.BuildDedicated(config.LineFamilyG(2))
	if err != nil {
		t.Fatal(err)
	}
	c := d.Compile()
	c.PhaseTable = legacyTable(t, d)
	if _, err := election.Load(c, d.Config); err != nil {
		t.Fatalf("the artifact with its own table: %v", err)
	}
	lists := append([]core.List(nil), c.Blueprint.Lists...)
	mutated := false
	for li := range lists {
		entries := append([]core.ListEntry(nil), lists[li].Entries...)
		for ei := range entries {
			if len(entries[ei].Label) > 0 && !mutated {
				label := append(core.Label(nil), entries[ei].Label...)
				label[0].Round++
				entries[ei].Label = label
				mutated = true
			}
		}
		lists[li].Entries = entries
	}
	if !mutated {
		t.Fatalf("line-family lists have no labels to mutate")
	}
	c.Blueprint.Lists = lists
	if loaded, err := election.Load(c, d.Config); loaded != nil || !errors.Is(err, election.ErrInvalidArtifact) || !strings.Contains(err.Error(), "phase table") {
		t.Fatalf("a stale table under regenerated lists loaded %v, error %v; want ErrInvalidArtifact naming the phase table", loaded != nil, err)
	}
}

func slicesIndexMessage(h history.Vector) int {
	for i, e := range h {
		if e.Kind == history.Message {
			return i
		}
	}
	return -1
}

// TestVerifyNamesDivergence fails a faulted election and checks Verify's
// explanation against the histories of a vector-recording run of the same
// protocol: the expected leader's first local round that differs from the
// history target, with both entries. The served outcome (codes) and the
// vector run's outcome give the same explanation, and a history that ends
// early names its last round.
func TestVerifyNamesDivergence(t *testing.T) {
	d, err := election.BuildDedicated(config.StaggeredPath(9, 1))
	if err != nil {
		t.Fatal(err)
	}
	target := d.Compile().LeaderHistory
	symbol := map[history.Kind]string{history.Silence: "∅", history.Message: `"1"`, history.Noise: "∗"}
	failed := 0
	for seed := uint64(1); seed <= 40 && failed < 5; seed++ {
		plan := &radio.FaultPlan{Seed: seed, Drop: 0.3, Noise: 0.05}
		var out radio.ElectionOutcome
		if err := d.ElectInto(&out, radio.Options{Fault: plan}); err != nil {
			t.Fatal(err)
		}
		err := d.Verify(&out)
		if err == nil {
			continue
		}
		failed++
		vectors := drip.Algorithm{Protocol: drip.Func(d.DRIP.Act), Decision: d.Algorithm.Decision}
		one, err1 := radio.RunElection(radio.Sequential{}, d.Config, vectors, radio.Options{Fault: plan, MaxRounds: d.RoundBound + 1})
		if err1 != nil {
			t.Fatal(err1)
		}
		h := one.Result.Histories[d.ExpectedLeader]
		i := h.FirstDifference(target)
		if i < 0 {
			t.Fatalf("seed %d: verify failed (%v) but the leader's history matches the target", seed, err)
		}
		want := fmt.Sprintf("leader %d diverged at local round %d: heard %s, target %s",
			d.ExpectedLeader, i, symbol[h[i].Kind], symbol[target[i].Kind])
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("seed %d: verify said %q, want it to contain %q", seed, err, want)
		}
		if err2 := d.Verify(one); err2 == nil || err2.Error() != err.Error() {
			t.Fatalf("seed %d: one-shot outcome verified as %v, served as %v", seed, err2, err)
		}
	}
	if failed == 0 {
		t.Fatalf("no faulted election failed")
	}

	var out radio.ElectionOutcome
	if err := d.ElectInto(&out, radio.Options{}); err != nil {
		t.Fatal(err)
	}
	short := *out.Result
	short.Codes = append([][]byte(nil), out.Result.Codes...)
	short.Codes[d.ExpectedLeader] = short.Codes[d.ExpectedLeader][:10]
	err = d.Verify(&radio.ElectionOutcome{Result: &short})
	want := fmt.Sprintf("leader %d's history ended at local round 9, target runs to %d", d.ExpectedLeader, d.LocalRounds)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("truncated history verified as %v, want %q", err, want)
	}
}

// TestRebuildIntoCodeTarget rebuilds one algorithm in place across
// configurations of different shapes: every recycled code target equals a
// fresh build's.
func TestRebuildIntoCodeTarget(t *testing.T) {
	arena := election.NewBuildArena()
	var prev *election.Dedicated
	for _, cfg := range []*config.Config{
		config.StaggeredClique(12),
		config.LineFamilyG(3),
		config.StaggeredClique(4),
		config.StaggeredPath(8, 3),
	} {
		want, err := election.BuildDedicated(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev, err = arena.RebuildInto(prev, cfg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prev.CodeTarget(), want.CodeTarget()) {
			t.Fatalf("%s: rebuilt code target %v, fresh %v", cfg, prev.CodeTarget(), want.CodeTarget())
		}
	}
}
