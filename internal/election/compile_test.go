package election

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/radio"
)

func TestCompileLoadRoundTrip(t *testing.T) {
	cases := []*config.Config{
		config.SpanFamilyH(2),
		config.LineFamilyG(2),
		config.StaggeredClique(5),
		config.EarlyCenterStar(5, 2),
	}
	for _, cfg := range cases {
		d := buildDedicated(t, cfg)
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("%s: marshal: %v", cfg, err)
		}
		compiled, err := UnmarshalCompiled(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", cfg, err)
		}
		loaded, err := Load(compiled, cfg)
		if err != nil {
			t.Fatalf("%s: load: %v", cfg, err)
		}
		out, err := loaded.Elect(radio.Options{})
		if err != nil {
			t.Fatalf("%s: elect: %v", cfg, err)
		}
		if err := loaded.Verify(out); err != nil {
			t.Fatalf("%s: verify: %v", cfg, err)
		}
		if out.Leader() != d.ExpectedLeader {
			t.Fatalf("%s: loaded algorithm elected %d, original designated %d", cfg, out.Leader(), d.ExpectedLeader)
		}
		// Loaded algorithms carry no classifier report, so the correspondence
		// check must refuse gracefully rather than panic.
		if err := loaded.VerifyCorrespondence(out.Result); err == nil {
			t.Fatalf("%s: correspondence check should refuse without a report", cfg)
		}
	}
}

func TestCompileFields(t *testing.T) {
	d := buildDedicated(t, config.SpanFamilyH(3))
	c := d.Compile()
	if c.ConfigName != "H_3" || c.ExpectedLeader != d.ExpectedLeader {
		t.Fatalf("compiled metadata wrong: %+v", c)
	}
	if c.Blueprint.Sigma != d.Config.Span() || len(c.Blueprint.Lists) != d.DRIP.Phases() {
		t.Fatalf("compiled blueprint wrong: %+v", c.Blueprint)
	}
	if len(c.LeaderHistory) != d.LocalRounds+1 {
		t.Fatalf("leader history length %d, want %d", len(c.LeaderHistory), d.LocalRounds+1)
	}
}

func TestLoadValidation(t *testing.T) {
	d := buildDedicated(t, config.SpanFamilyH(2))
	c := d.Compile()

	if _, err := Load(nil, config.SpanFamilyH(2)); err == nil {
		t.Fatalf("nil compiled should be rejected")
	}
	if _, err := Load(c, nil); err == nil {
		t.Fatalf("nil configuration should be rejected")
	}
	// Span mismatch: H_3 has span 4, the algorithm was built for span 3.
	if _, err := Load(c, config.SpanFamilyH(3)); err == nil {
		t.Fatalf("span mismatch should be rejected")
	}
	// Leader index out of range for a smaller configuration of equal span.
	small := c
	smallCopy := *small
	smallCopy.ExpectedLeader = 9
	if _, err := Load(&smallCopy, config.SpanFamilyH(2)); err == nil {
		t.Fatalf("out-of-range leader should be rejected")
	}
	empty := *c
	empty.LeaderHistory = nil
	if _, err := Load(&empty, config.SpanFamilyH(2)); err == nil {
		t.Fatalf("empty leader history should be rejected")
	}
}

func TestUnmarshalCompiledErrors(t *testing.T) {
	if _, err := UnmarshalCompiled([]byte("nonsense")); err == nil {
		t.Fatalf("invalid JSON should error")
	}
}

// TestLoadInstallsEmbeddedPhaseTable pins what an artifact of an earlier
// release, which embeds its phase table, executes: Compile writes no table,
// so the test attaches the compiled one as such an artifact carries it. The
// executing table equals the embedded one, but is compiled from the lists,
// so editing the artifact after the load does not reach it, and the edited
// table is rejected on the next load.
func TestLoadInstallsEmbeddedPhaseTable(t *testing.T) {
	cfg := config.LineFamilyG(2)
	d, err := BuildDedicated(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if strings.Contains(string(data), "phase_table") || strings.Contains(string(data), "artifact_digest") {
		t.Fatalf("Compile wrote a phase table or a digest: %s", data)
	}
	table, err := json.Marshal(d.DRIP.Table())
	if err != nil {
		t.Fatalf("%v", err)
	}
	c, err := UnmarshalCompiled([]byte(fmt.Sprintf(`%s,"phase_table":%s}`, data[:len(data)-1], table)))
	if err != nil {
		t.Fatalf("%v", err)
	}
	if c.PhaseTable == nil {
		t.Fatalf("the artifact should embed the phase table")
	}
	loaded, err := Load(c, cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !loaded.DRIP.Table().Equal(c.PhaseTable) {
		t.Fatalf("the executing table differs from the embedded one")
	}
	c.PhaseTable.Plans[0].Phase = 42
	if loaded.DRIP.Table().Plans[0].Phase == 42 {
		t.Fatalf("post-load artifact mutation must not reach the executing table")
	}
	if _, err := Load(c, cfg); !errors.Is(err, ErrInvalidArtifact) {
		t.Fatalf("tampered phase table: %v, want ErrInvalidArtifact", err)
	}
}
