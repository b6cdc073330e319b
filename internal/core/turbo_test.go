package core

import (
	"math/rand"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/graph"
)

// reportsEquivalent reports whether two Classifier reports agree on
// verdict, leader, iteration count and the full partition sequence
// (classes, labels, representatives of every snapshot, and every list L_j).
func reportsEquivalent(a, b *Report) bool {
	if a.Feasible() != b.Feasible() || a.Leader != b.Leader || a.LeaderClass != b.LeaderClass {
		return false
	}
	if a.Iterations() != b.Iterations() || len(a.Lists) != len(b.Lists) || len(a.Snapshots) != len(b.Snapshots) {
		return false
	}
	for j := range a.Snapshots {
		sa, sb := a.Snapshots[j], b.Snapshots[j]
		if sa.NumClasses != sb.NumClasses || len(sa.Labels) != len(sb.Labels) {
			return false
		}
		for v := range sa.Classes {
			if sa.Classes[v] != sb.Classes[v] {
				return false
			}
		}
		// A lean report's snapshot keeps no label slots.
		for v := range sa.Labels {
			if !sa.Labels[v].Equal(sb.Labels[v]) {
				return false
			}
		}
		for k := range sa.Reps {
			if sa.Reps[k] != sb.Reps[k] {
				return false
			}
		}
	}
	for j := range a.Lists {
		la, lb := a.Lists[j], b.Lists[j]
		if la.Terminate != lb.Terminate || len(la.Entries) != len(lb.Entries) {
			return false
		}
		for k := range la.Entries {
			if la.Entries[k].OldClass != lb.Entries[k].OldClass {
				return false
			}
			if !la.Entries[k].Label.Equal(lb.Entries[k].Label) {
				return false
			}
		}
	}
	return true
}

func TestClassifyTurboInputValidation(t *testing.T) {
	if _, err := ClassifyTurbo(nil, ClassifyOptions{}); err == nil {
		t.Fatalf("nil configuration should error")
	}
}

func TestClassifyTurboAgreesOnFamilies(t *testing.T) {
	cases := []*config.Config{
		config.SingleNode(),
		config.SymmetricPair(),
		config.AsymmetricPair(3),
		config.SpanFamilyH(1),
		config.SpanFamilyH(5),
		config.SymmetricFamilyS(3),
		config.LineFamilyG(2),
		config.LineFamilyG(4),
		config.StaggeredPath(9, 1),
		config.StaggeredClique(7),
		config.EarlyCenterStar(6, 2),
		config.TwoBlockCycle(3),
		config.TwoBlockCycle(4),
		config.UniformTags(graph.Hypercube(3)),
	}
	for _, cfg := range cases {
		baseline, err := Classify(cfg)
		if err != nil {
			t.Fatalf("%s baseline: %v", cfg, err)
		}
		turbo, err := ClassifyTurbo(cfg, ClassifyOptions{RecordSnapshots: true})
		if err != nil {
			t.Fatalf("%s turbo: %v", cfg, err)
		}
		if !reportsEquivalent(baseline, turbo) {
			t.Fatalf("%s: turbo classifier diverged from the baseline\nbaseline:\n%s\nturbo:\n%s",
				cfg, baseline.Summary(), turbo.Summary())
		}
	}
}

// TestPropertyThreeImplementationsAgree is the cross-implementation property
// test: over ~200 seeded random configurations spanning sparse and dense
// graphs and a range of tag spans, Classify (the paper-faithful
// representative scan), the turbo path on fresh memory, and the turbo path
// recycling the previous trial's report through ClassifyInto (the
// rebuild-in-place admission path) must agree on verdict, leader, iteration
// count and the full partition sequence (classes, labels, representatives
// of every snapshot, and every list L_j).
func TestPropertyThreeImplementationsAgree(t *testing.T) {
	turboEngine := NewTurbo()
	var recycled *Report
	trials := 200
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 1 + rng.Intn(24)
		density := []float64{0.05, 0.15, 0.3, 0.6, 1.0}[trial%5]
		span := []int{0, 1, 2, 3, 5, 9}[trial%6]
		cfg := config.Random(n, density, config.UniformRandomTags{Span: span}, rng)

		baseline, err := Classify(cfg)
		if err != nil {
			t.Fatalf("trial %d %s baseline: %v", trial, cfg, err)
		}
		turbo, err := turboEngine.Classify(cfg, ClassifyOptions{RecordSnapshots: true})
		if err != nil {
			t.Fatalf("trial %d %s turbo: %v", trial, cfg, err)
		}
		recycled, err = turboEngine.ClassifyInto(recycled, cfg, ClassifyOptions{RecordSnapshots: true})
		if err != nil {
			t.Fatalf("trial %d %s recycled turbo: %v", trial, cfg, err)
		}
		if !reportsEquivalent(baseline, recycled) {
			t.Fatalf("trial %d %s: recycled turbo diverged\nbaseline:\n%s\nrecycled:\n%s",
				trial, cfg, baseline.Summary(), recycled.Summary())
		}
		if !reportsEquivalent(baseline, turbo) {
			t.Fatalf("trial %d %s: turbo diverged\nbaseline:\n%s\nturbo:\n%s",
				trial, cfg, baseline.Summary(), turbo.Summary())
		}
		if turbo.Stats.Iterations != baseline.Iterations() {
			t.Fatalf("trial %d %s: turbo counted %d iterations, baseline %d",
				trial, cfg, turbo.Stats.Iterations, baseline.Iterations())
		}
	}
}

// TestClassifyTurboLeanMode checks that the lean mode keeps everything
// except the per-iteration snapshots: verdict, leader, lists and the final
// partition are identical to the baseline's.
func TestClassifyTurboLeanMode(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		n := 1 + rng.Intn(20)
		cfg := config.Random(n, 0.25, config.UniformRandomTags{Span: trial % 5}, rng)

		baseline, err := Classify(cfg)
		if err != nil {
			t.Fatalf("trial %d %s baseline: %v", trial, cfg, err)
		}
		lean, err := ClassifyTurbo(cfg, ClassifyOptions{})
		if err != nil {
			t.Fatalf("trial %d %s lean: %v", trial, cfg, err)
		}
		if lean.Feasible() != baseline.Feasible() || lean.Leader != baseline.Leader || lean.LeaderClass != baseline.LeaderClass {
			t.Fatalf("trial %d %s: lean verdict diverged", trial, cfg)
		}
		if lean.Stats.Iterations != baseline.Iterations() {
			t.Fatalf("trial %d %s: lean iterations %d != %d", trial, cfg, lean.Stats.Iterations, baseline.Iterations())
		}
		if len(lean.Snapshots) != 1 {
			t.Fatalf("trial %d %s: lean mode kept %d snapshots, want 1", trial, cfg, len(lean.Snapshots))
		}
		finalBase, finalLean := baseline.FinalSnapshot(), lean.FinalSnapshot()
		if finalLean.NumClasses != finalBase.NumClasses {
			t.Fatalf("trial %d %s: lean final class count diverged", trial, cfg)
		}
		for v := range finalBase.Classes {
			if finalBase.Classes[v] != finalLean.Classes[v] {
				t.Fatalf("trial %d %s: lean final partition diverged at node %d", trial, cfg, v)
			}
		}
		if len(lean.Lists) != len(baseline.Lists) {
			t.Fatalf("trial %d %s: lean lists length %d != %d", trial, cfg, len(lean.Lists), len(baseline.Lists))
		}
		for j := range baseline.Lists {
			la, lb := baseline.Lists[j], lean.Lists[j]
			if la.Terminate != lb.Terminate || len(la.Entries) != len(lb.Entries) {
				t.Fatalf("trial %d %s: lean list %d diverged", trial, cfg, j)
			}
			for k := range la.Entries {
				if la.Entries[k].OldClass != lb.Entries[k].OldClass || !la.Entries[k].Label.Equal(lb.Entries[k].Label) {
					t.Fatalf("trial %d %s: lean list %d entry %d diverged", trial, cfg, j, k)
				}
			}
		}
	}
}

// TestTurboReportOwnsItsMemory ensures a report stays intact after the
// engine that produced it is reused on a different configuration.
func TestTurboReportOwnsItsMemory(t *testing.T) {
	engine := NewTurbo()
	first, err := engine.Classify(config.StaggeredClique(9), ClassifyOptions{RecordSnapshots: true})
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	want, err := Classify(config.StaggeredClique(9))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := engine.Classify(config.LineFamilyG(3), ClassifyOptions{}); err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
	}
	if !reportsEquivalent(want, first) {
		t.Fatalf("report was corrupted by engine reuse")
	}
}

func TestPackedTripleRoundTrip(t *testing.T) {
	cases := []Triple{
		{Class: 1, Round: 1, Multi: false},
		{Class: 1, Round: 1, Multi: true},
		{Class: 7, Round: 13, Multi: false},
		{Class: 1 << 20, Round: 1 << 29, Multi: true},
	}
	for _, tr := range cases {
		p := packPair(int32(tr.Class), int32(tr.Round))
		if tr.Multi {
			p |= packMultiBit
		}
		if got := unpackTriple(p); got != tr {
			t.Fatalf("round trip %v -> %v", tr, got)
		}
	}
	// Packed comparison must match ≺hist.
	ordered := []Triple{
		{Class: 1, Round: 2, Multi: false},
		{Class: 1, Round: 2, Multi: true},
		{Class: 1, Round: 3, Multi: false},
		{Class: 2, Round: 1, Multi: false},
	}
	for i := 0; i+1 < len(ordered); i++ {
		a := packPair(int32(ordered[i].Class), int32(ordered[i].Round))
		if ordered[i].Multi {
			a |= packMultiBit
		}
		b := packPair(int32(ordered[i+1].Class), int32(ordered[i+1].Round))
		if ordered[i+1].Multi {
			b |= packMultiBit
		}
		if a >= b {
			t.Fatalf("packed order violates ≺hist between %v and %v", ordered[i], ordered[i+1])
		}
		if !ordered[i].Less(ordered[i+1]) {
			t.Fatalf("test fixture not in ≺hist order at %d", i)
		}
	}
}

// TestTurboSpanFallbackMatchesClassify covers the one input the packed
// triple layout cannot hold: a span above maxTurboSpan sends Turbo.Classify
// to the reference Classify, in both recording modes, and the report must
// equal a direct Classify run.
func TestTurboSpanFallbackMatchesClassify(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	cfg, err := config.New(g, []int{0, 1 << 30, 1<<31 - 1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Span() <= maxTurboSpan {
		t.Fatalf("span %d does not exceed maxTurboSpan %d", cfg.Span(), maxTurboSpan)
	}
	want, err := Classify(cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, opts := range []ClassifyOptions{{}, {RecordSnapshots: true}} {
		got, err := NewTurbo().Classify(cfg, opts)
		if err != nil {
			t.Fatalf("turbo %+v: %v", opts, err)
		}
		if !reportsEquivalent(want, got) {
			t.Fatalf("turbo %+v diverged from Classify on span %d\nwant:\n%s\ngot:\n%s",
				opts, cfg.Span(), want.Summary(), got.Summary())
		}
	}
}
