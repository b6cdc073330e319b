package harness

import (
	"fmt"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/radio"
)

// This file implements the adversarial-airwaves experiment: E18 runs the
// canonical dedicated algorithm over a seeded lossy medium (radio.FaultPlan)
// and classifies the outcomes.

// e18Points are the lossy-medium operating points E18 sweeps. Drop is the
// per-link per-round delivery-loss probability, Noise the per-node per-round
// spurious-collision probability.
type e18Point struct{ drop, noise float64 }

func e18Points(opts Options) []e18Point {
	if opts.Quick {
		return []e18Point{{0, 0}, {0.05, 0}, {0, 0.05}, {0.5, 0.1}}
	}
	return []e18Point{
		{0, 0},
		{0.01, 0}, {0.05, 0}, {0.2, 0}, {0.5, 0},
		{0, 0.05}, {0, 0.2},
		{0.2, 0.05}, {0.5, 0.1},
	}
}

// E18FaultedMedium measures how the canonical algorithm degrades when the
// medium misbehaves. The algorithm is deterministic and terminates at fixed
// local rounds, so a faulted election never hangs — it finishes within the
// round bound and either still elects the expected leader or fails in one
// of three observable ways (no leader, wrong leader, several leaders). For
// each (drop, noise) point the experiment runs many independently seeded
// fault plans and reports the outcome distribution. The (0, 0) row pins the
// clean path: an all-zero plan must reproduce the fault-free outcome
// exactly.
func E18FaultedMedium(opts Options) (*Table, error) {
	trials := opts.trials(100, 12)
	cfg := config.StaggeredClique(12)
	if opts.Quick {
		cfg = config.StaggeredClique(8)
	}
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		return nil, fmt.Errorf("E18 build: %w", err)
	}
	// Clean reference outcome, once.
	clean, err := d.Elect(radio.Options{})
	if err != nil {
		return nil, fmt.Errorf("E18 clean reference: %w", err)
	}
	if err := d.Verify(clean); err != nil {
		return nil, fmt.Errorf("E18 clean reference: %w", err)
	}
	cleanLeader, cleanRounds := clean.Leader(), clean.Rounds

	table := NewTable("E18: protocol outcome over a seeded lossy medium (canonical algorithm)",
		"drop", "noise", "trials", "correct", "no leader", "wrong leader", "multi leader", "mean rounds")
	for _, pt := range e18Points(opts) {
		var correct, none, wrong, multi int
		var roundSum int
		for trial := 0; trial < trials; trial++ {
			plan := &radio.FaultPlan{Seed: uint64(trial) + 1, Drop: pt.drop, Noise: pt.noise}
			ref, err := d.Elect(radio.Options{Fault: plan})
			if err != nil {
				return nil, fmt.Errorf("E18 drop=%g noise=%g seed=%d: %w", pt.drop, pt.noise, plan.Seed, err)
			}
			roundSum += ref.Rounds
			switch {
			case d.Verify(ref) == nil:
				correct++
			case len(ref.Leaders) == 0:
				none++
			case len(ref.Leaders) == 1:
				wrong++
			default:
				multi++
			}
			if pt.drop == 0 && pt.noise == 0 {
				if ref.Leader() != cleanLeader || ref.Rounds != cleanRounds {
					return nil, fmt.Errorf("E18 seed=%d: all-zero fault plan diverged from the clean medium", plan.Seed)
				}
			}
		}
		pc := func(k int) string { return fmt.Sprintf("%d (%.0f%%)", k, 100*float64(k)/float64(trials)) }
		table.AddRow(
			fmt.Sprintf("%.2f", pt.drop),
			fmt.Sprintf("%.2f", pt.noise),
			fmt.Sprintf("%d", trials),
			pc(correct), pc(none), pc(wrong), pc(multi),
			fmt.Sprintf("%.1f", float64(roundSum)/float64(trials)),
		)
	}
	table.AddNote("staggered clique (n=%d), %d independently seeded fault plans per point", cfg.N(), trials)
	table.AddNote("the algorithm terminates at fixed local rounds, so a faulted election always finishes within the round bound — faults change the outcome class, never termination")
	table.AddNote("drop=0 noise=0 doubles as the clean-path check: an all-zero plan reproduced the fault-free leader and round count on every seed")
	return table, nil
}
