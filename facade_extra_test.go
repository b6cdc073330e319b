package anonradio

import (
	"encoding/json"
	"strings"
	"testing"
)

// These tests cover the facade functions added on top of the core pipeline:
// compiled algorithms, execution metrics, history aliases and the fast
// classifier re-export.

func TestCompileAndLoadElectionFacade(t *testing.T) {
	cfg := LineFamilyG(2)
	_, dedicated, err := Elect(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	compiled := CompileElection(dedicated)
	if compiled.ConfigName != "G_2" || compiled.ExpectedLeader != dedicated.ExpectedLeader {
		t.Fatalf("compiled metadata wrong: %+v", compiled)
	}

	data, err := json.Marshal(compiled)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	parsed, err := ParseCompiledElection(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out, loaded, err := ElectCompiled(parsed, cfg)
	if err != nil {
		t.Fatalf("elect compiled: %v", err)
	}
	if out.Leader() != dedicated.ExpectedLeader || loaded.RoundBound != dedicated.RoundBound {
		t.Fatalf("compiled election diverged: leader %d vs %d", out.Leader(), dedicated.ExpectedLeader)
	}
	if _, err := ParseCompiledElection([]byte("junk")); err == nil {
		t.Fatalf("junk JSON should error")
	}
	// Loading against a configuration with a different span must fail.
	if _, _, err := ElectCompiled(parsed, SpanFamilyH(7)); err == nil {
		t.Fatalf("span mismatch should error")
	}
}

func TestComputeMetricsFacade(t *testing.T) {
	_, dedicated, err := Elect(SpanFamilyH(2))
	if err != nil {
		t.Fatalf("%v", err)
	}
	res, err := Simulate(dedicated, true)
	if err != nil {
		t.Fatalf("%v", err)
	}
	metrics, err := ComputeMetrics(res)
	if err != nil {
		t.Fatalf("%v", err)
	}
	// Every node transmits once per non-terminate phase (one phase for H_2).
	if metrics.Transmissions != 4 {
		t.Fatalf("expected 4 transmissions, got %+v", metrics)
	}
	if metrics.ForcedWakeups != 0 {
		t.Fatalf("the canonical DRIP is patient; no forced wake-ups expected: %+v", metrics)
	}
	if !strings.Contains(metrics.String(), "tx=4") {
		t.Fatalf("metrics string: %q", metrics.String())
	}
	// Metrics require a trace.
	untraced, err := Simulate(dedicated, false)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if _, err := ComputeMetrics(untraced); err == nil {
		t.Fatalf("metrics without a trace should error")
	}
}

func TestHistoryAliases(t *testing.T) {
	_, dedicated, err := Elect(AsymmetricPair(1))
	if err != nil {
		t.Fatalf("%v", err)
	}
	res, err := Simulate(dedicated, false)
	if err != nil {
		t.Fatalf("%v", err)
	}
	var h History = res.Histories[0]
	if h.CountKind(HistorySilence) == 0 {
		t.Fatalf("history should contain silence entries")
	}
	if HistorySilence == HistoryMessage || HistoryMessage == HistoryNoise {
		t.Fatalf("history kind constants must be distinct")
	}
	var e HistoryEntry = h[0]
	if e.Kind != HistorySilence {
		t.Fatalf("first entry of a spontaneously woken node should be silence")
	}
}

func TestRunExperimentAblationIDs(t *testing.T) {
	table, err := RunExperiment("A1", true, 1)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(table.Rows) == 0 {
		t.Fatalf("A1 produced no rows")
	}
	table, err = RunExperiment("E11", true, 1)
	if err != nil {
		t.Fatalf("%v", err)
	}
	for _, row := range table.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("E11 reported a contradiction: %v", row)
		}
	}
}
