package election

import (
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/radio"
)

// TestElectFaultedAllocs pins the allocation contract of the fault seam at
// the election layer: compiling the fault plumbing into the serving path
// must not cost the clean path anything (a zero Options.Fault stays at zero
// allocations per election), and a warm faulted election — drop, noise and
// outage machinery all active — allocates nothing either, because the fault
// state lives in the reused simulator.
func TestElectFaultedAllocs(t *testing.T) {
	d := buildDedicated(t, config.StaggeredClique(16))
	var out radio.ElectionOutcome

	clean := func() {
		if err := d.ElectInto(&out, radio.Options{}); err != nil {
			t.Fatalf("%v", err)
		}
		if len(out.Leaders) != 1 || out.Leaders[0] != d.ExpectedLeader {
			t.Fatalf("clean election failed: %v", out.Leaders)
		}
	}
	clean()
	if allocs := testing.AllocsPerRun(50, clean); allocs != 0 {
		t.Fatalf("clean election with fault plumbing compiled in allocates %.1f times, want 0", allocs)
	}

	plan := &radio.FaultPlan{
		Seed:    99,
		Drop:    0.2,
		Noise:   0.05,
		Outages: []radio.Outage{{Node: 1, From: 0, To: 2}},
	}
	faulted := func() {
		if err := d.ElectInto(&out, radio.Options{Fault: plan}); err != nil {
			t.Fatalf("%v", err)
		}
	}
	faulted()
	if allocs := testing.AllocsPerRun(50, faulted); allocs != 0 {
		t.Fatalf("warm faulted election allocates %.1f times, want 0", allocs)
	}
	// The reused simulator must come back clean after faulted runs.
	clean()
	if err := d.Verify(&out); err != nil {
		t.Fatalf("clean election after faulted runs: %v", err)
	}
}

// TestElectFaultedDeterministicPerKey pins what the service layer relies on:
// the same dedicated algorithm and the same fault plan produce the same
// outcome on every run — faulted elections are deterministic per key, not
// per attempt.
func TestElectFaultedDeterministicPerKey(t *testing.T) {
	d := buildDedicated(t, config.StaggeredPath(9, 1))
	plan := &radio.FaultPlan{Seed: 7, Drop: 0.3, Noise: 0.1}
	var first radio.ElectionOutcome
	if err := d.ElectInto(&first, radio.Options{Fault: plan}); err != nil {
		t.Fatalf("%v", err)
	}
	leaders := append([]int(nil), first.Leaders...)
	rounds := first.Rounds
	for trial := 0; trial < 5; trial++ {
		var out radio.ElectionOutcome
		if err := d.ElectInto(&out, radio.Options{Fault: plan}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if out.Rounds != rounds || len(out.Leaders) != len(leaders) {
			t.Fatalf("trial %d: outcome diverged: %v/%d vs %v/%d", trial, out.Leaders, out.Rounds, leaders, rounds)
		}
		for i := range leaders {
			if out.Leaders[i] != leaders[i] {
				t.Fatalf("trial %d: leaders diverged: %v vs %v", trial, out.Leaders, leaders)
			}
		}
	}
}
