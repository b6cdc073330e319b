package election_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/drip"
	"anonradio/internal/election"
	"anonradio/internal/history"
	"anonradio/internal/radio"
	"anonradio/internal/wire"
)

// loaders are the two artifact loaders; the code target must not depend on
// which one adopted the artifact.
var loaders = []struct {
	name string
	load func(*election.Compiled, *config.Config) (*election.Dedicated, error)
}{{"Load", election.Load}, {"LoadTrusted", election.LoadTrusted}}

// checkLoadedTarget loads c through both loaders and compares the code
// target with want's, and the loaded election with want's.
func checkLoadedTarget(t *testing.T, name string, c *election.Compiled, cfg *config.Config, want *election.Dedicated) {
	t.Helper()
	for _, l := range loaders {
		d, err := l.load(c, cfg)
		if err != nil {
			t.Fatalf("%s %s: %v", name, l.name, err)
		}
		if !bytes.Equal(d.CodeTarget(), want.CodeTarget()) {
			t.Fatalf("%s %s: code target %v, build's %v", name, l.name, d.CodeTarget(), want.CodeTarget())
		}
		var out radio.ElectionOutcome
		if err := d.ElectInto(&out, radio.Options{}); err != nil {
			t.Fatalf("%s %s: %v", name, l.name, err)
		}
		if err := d.Verify(&out); err != nil {
			t.Fatalf("%s %s: %v", name, l.name, err)
		}
	}
}

// TestCodeTargetFromArtifacts pins that an artifact's loaders derive the
// same code target as the build, from JSON and binary artifacts alike, and
// that the build's code target is the codes of its history target.
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
		bin, err := wire.AppendArtifact(nil, c)
		if err != nil {
			t.Fatal(err)
		}
		fromBin, err := wire.DecodeArtifact(bin)
		if err != nil {
			t.Fatal(err)
		}
		checkLoadedTarget(t, cfg.String()+" binary", fromBin, d.Config, d)
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
// carries a foreign message where the target has the canonical one: the
// code target must not fold it into the canonical message's code, so no
// node matches and Verify says where the leader diverged.
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
	loaded, err := election.Load(c, d.Config)
	if err != nil {
		t.Fatal(err)
	}
	var out radio.ElectionOutcome
	if err := loaded.ElectInto(&out, radio.Options{}); err != nil {
		t.Fatal(err)
	}
	err = loaded.Verify(&out)
	want := fmt.Sprintf("leader %d diverged at local round %d: heard \"1\", target a foreign entry", d.ExpectedLeader, i)
	if len(out.Leaders) != 0 || err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("leaders %v, verify %v; want no leader and %q", out.Leaders, err, want)
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
		one, err1 := radio.RunElection(radio.Parallel{}, d.Config, vectors, radio.Options{Fault: plan, MaxRounds: d.RoundBound + 1})
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
