package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/radio"
	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wal"
)

// This file implements the adversarial-airwaves experiments: E18 runs the
// canonical dedicated algorithm over a seeded lossy medium (radio.FaultPlan)
// and classifies the outcomes across every engine, E19 soaks the HTTP
// service with dynamic churn — keys evicted and re-admitted through the
// rebuild-in-place pipeline — while closed-loop clients keep electing.

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
// fault plans and reports the outcome distribution.
//
// Every trial doubles as a cross-engine determinism check: the same fault
// seed is replayed on both engines (sequential, parallel) and the outcomes
// must match the sequential reference bit-for-bit — fault decisions are
// pure functions of (seed, round, node), never of goroutine schedule. The
// (0, 0) row additionally pins the clean path: an all-zero plan must
// reproduce the fault-free outcome exactly.
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
	engines := []struct {
		name string
		eng  radio.Engine
	}{
		{"sequential", radio.Sequential{}},
		{"parallel", radio.Parallel{}},
	}

	// Clean reference outcome, once.
	clean, err := d.Elect(radio.Sequential{}, radio.Options{})
	if err != nil {
		return nil, fmt.Errorf("E18 clean reference: %w", err)
	}
	if err := d.Verify(clean); err != nil {
		return nil, fmt.Errorf("E18 clean reference: %w", err)
	}
	cleanLeader, cleanRounds := clean.Leader(), clean.Rounds

	table := NewTable("E18: protocol outcome over a seeded lossy medium (canonical algorithm, both engines)",
		"drop", "noise", "trials", "correct", "no leader", "wrong leader", "multi leader", "mean rounds", "engines agree")
	for _, pt := range e18Points(opts) {
		var correct, none, wrong, multi int
		var roundSum int
		agree := true
		for trial := 0; trial < trials; trial++ {
			plan := &radio.FaultPlan{Seed: uint64(trial) + 1, Drop: pt.drop, Noise: pt.noise}
			ref, err := d.Elect(radio.Sequential{}, radio.Options{Fault: plan})
			if err != nil {
				return nil, fmt.Errorf("E18 drop=%g noise=%g seed=%d: %w", pt.drop, pt.noise, plan.Seed, err)
			}
			leaders := append([]int(nil), ref.Leaders...)
			roundSum += ref.Rounds
			switch {
			case d.Verify(ref) == nil:
				correct++
			case len(leaders) == 0:
				none++
			case len(leaders) == 1:
				wrong++
			default:
				multi++
			}
			if pt.drop == 0 && pt.noise == 0 {
				if ref.Leader() != cleanLeader || ref.Rounds != cleanRounds {
					return nil, fmt.Errorf("E18 seed=%d: all-zero fault plan diverged from the clean medium", plan.Seed)
				}
			}
			// Replay the same seed on the other engines; a schedule-dependent
			// fault decision would show up here as a diverging outcome.
			for _, e := range engines[1:] {
				out, err := d.Elect(e.eng, radio.Options{Fault: plan})
				if err != nil {
					return nil, fmt.Errorf("E18 %s seed=%d: %w", e.name, plan.Seed, err)
				}
				if out.Rounds != ref.Rounds || len(out.Leaders) != len(leaders) {
					agree = false
					continue
				}
				for i := range leaders {
					if out.Leaders[i] != leaders[i] {
						agree = false
					}
				}
			}
		}
		if !agree {
			return nil, fmt.Errorf("E18 drop=%g noise=%g: engines diverged under the same fault seed", pt.drop, pt.noise)
		}
		pc := func(k int) string { return fmt.Sprintf("%d (%.0f%%)", k, 100*float64(k)/float64(trials)) }
		table.AddRow(
			fmt.Sprintf("%.2f", pt.drop),
			fmt.Sprintf("%.2f", pt.noise),
			fmt.Sprintf("%d", trials),
			pc(correct), pc(none), pc(wrong), pc(multi),
			fmt.Sprintf("%.1f", float64(roundSum)/float64(trials)),
			fmt.Sprintf("%v", agree),
		)
	}
	table.AddNote("staggered clique (n=%d), %d independently seeded fault plans per point, every plan replayed on both engines", cfg.N(), trials)
	table.AddNote("the algorithm terminates at fixed local rounds, so a faulted election always finishes within the round bound — faults change the outcome class, never termination")
	table.AddNote("drop=0 noise=0 doubles as the clean-path check: an all-zero plan reproduced the fault-free leader and round count on every seed")
	return table, nil
}

// E19ChurnSoak soaks the served registry with dynamic churn: a durable
// registry (WAL + background checkpoints) is fronted by the HTTP server, a
// churn loop evicts and re-admits half the keys through POST /v1/soak/start
// while closed-loop HTTP clients elect on the stable keys the whole time.
// The table compares serving with the churn loop off and on — throughput,
// median and p99.9 latency — and reports the soak and WAL counters: cycles,
// re-admissions, admission retries, journal appends and completed
// checkpoints. The invariant under test is the one the soak driver
// guarantees: zero lost admissions (every eviction is repaired, Failures
// stays 0) and every stable-key election keeps succeeding while the
// admission pipeline churns underneath it.
func E19ChurnSoak(opts Options) (*Table, error) {
	// The soak is paced: with Interval=0 the churn loop rebuilds
	// back-to-back and on small hosts the admission builds own every core,
	// measuring CPU starvation instead of pipeline interference. A small
	// pause per cycle keeps churn continuous (hundreds of cycles per run)
	// while elections still get scheduler slots.
	workers, elections, interval := 8, 4000, int64(1000)
	if opts.Quick {
		workers, elections, interval = 4, 400, 2000
	}

	dir, err := os.MkdirTemp("", "anonradio-e19-*")
	if err != nil {
		return nil, fmt.Errorf("E19 tempdir: %w", err)
	}
	defer os.RemoveAll(dir)
	reg, report, err := service.Open(service.Options{
		Shards: 4,
		WAL:    service.WALOptions{Dir: dir, Sync: wal.SyncBatch, CheckpointRecords: 32},
	})
	if err != nil {
		return nil, fmt.Errorf("E19 open: %w", err)
	}
	defer reg.Close()
	if !report.Clean() {
		return nil, fmt.Errorf("E19: dirty recovery on a fresh directory: %+v", report)
	}

	stable := []string{"stable-clique", "stable-path"}
	stableCfgs := []*config.Config{config.StaggeredClique(10), config.StaggeredPath(9, 1)}
	churn := []server.SoakEntry{
		{Key: "churn-clique", Config: config.StaggeredClique(8).Marshal()},
		{Key: "churn-path", Config: config.StaggeredPath(7, 2).Marshal()},
	}
	for i, key := range stable {
		if err := reg.Register(key, stableCfgs[i]); err != nil {
			return nil, fmt.Errorf("E19 register %s: %w", key, err)
		}
	}
	for _, e := range churn {
		cfg, err := config.Unmarshal(e.Config)
		if err != nil {
			return nil, fmt.Errorf("E19 parse %s: %w", e.Key, err)
		}
		if err := reg.Register(e.Key, cfg); err != nil {
			return nil, fmt.Errorf("E19 register %s: %w", e.Key, err)
		}
	}

	srv := server.New(reg, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("E19 listen: %w", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveDone
	}()
	base := "http://" + l.Addr().String()
	client := &http.Client{}

	post := func(path string, body, out any) (int, error) {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	}

	// Reference outcomes for the stable keys (also the warm-up).
	refs := make(map[string]server.Outcome, len(stable))
	for _, key := range stable {
		var out server.Outcome
		if code, err := post("/v1/elect", server.ElectRequest{Key: key}, &out); err != nil || code != http.StatusOK || !out.Elected {
			return nil, fmt.Errorf("E19 warm-up %s: code=%d out=%+v err=%v", key, code, out, err)
		}
		refs[key] = out
	}

	serve := func(mode string) ([]time.Duration, time.Duration, error) {
		perWorker := elections / workers
		lats := make([][]time.Duration, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lat := make([]time.Duration, 0, perWorker)
				for i := 0; i < perWorker; i++ {
					key := stable[(w+i)%len(stable)]
					var out server.Outcome
					t0 := time.Now()
					code, err := post("/v1/elect", server.ElectRequest{Key: key}, &out)
					lat = append(lat, time.Since(t0))
					if err != nil || code != http.StatusOK {
						errs[w] = fmt.Errorf("%s elect %s: code=%d %v", mode, key, code, err)
						return
					}
					if ref := refs[key]; out.Leader != ref.Leader || out.Rounds != ref.Rounds {
						errs[w] = fmt.Errorf("%s elect %s: outcome %+v diverged from reference %+v", mode, key, out, ref)
						return
					}
				}
				lats[w] = lat
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		var all []time.Duration
		for w := range lats {
			if errs[w] != nil {
				return nil, 0, errs[w]
			}
			all = append(all, lats[w]...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		return all, elapsed, nil
	}
	pct := func(all []time.Duration, p float64) time.Duration {
		return all[min(len(all)-1, int(float64(len(all))*p))]
	}

	table := NewTable("E19: HTTP churn soak (elections on stable keys while churned keys evict and re-admit)",
		"mode", "ops", "total time", "throughput", "p50", "p99.9", "soak cycles", "readmissions", "retries", "failures")

	quiet, quietElapsed, err := serve("churn off")
	if err != nil {
		return nil, err
	}
	table.AddRow("churn off", fmt.Sprintf("%d", len(quiet)),
		quietElapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f elect/s", float64(len(quiet))/quietElapsed.Seconds()),
		pct(quiet, 0.50).Round(time.Microsecond).String(),
		pct(quiet, 0.999).Round(time.Microsecond).String(),
		"—", "—", "—", "—")

	var started server.SoakStatusResponse
	if code, err := post("/v1/soak/start", server.SoakStartRequest{Entries: churn, IntervalMicros: interval}, &started); err != nil || code != http.StatusOK || !started.Active {
		return nil, fmt.Errorf("E19 soak start: code=%d resp=%+v err=%v", code, started, err)
	}
	soaked, soakedElapsed, err := serve("churn on")
	if err != nil {
		return nil, err
	}
	var final server.SoakStatusResponse
	if code, err := post("/v1/soak/stop", struct{}{}, &final); err != nil || code != http.StatusOK || final.Active {
		return nil, fmt.Errorf("E19 soak stop: code=%d resp=%+v err=%v", code, final, err)
	}
	if final.Stats.Failures != 0 {
		return nil, fmt.Errorf("E19: %d lost admissions during the soak", final.Stats.Failures)
	}
	if final.Stats.Readmissions == 0 {
		return nil, fmt.Errorf("E19: the churn loop never cycled")
	}
	// Every churned key must still serve after the soak — no lost admissions.
	for _, e := range churn {
		var out server.Outcome
		if code, err := post("/v1/elect", server.ElectRequest{Key: e.Key}, &out); err != nil || code != http.StatusOK || !out.Elected {
			return nil, fmt.Errorf("E19 post-soak elect %s: code=%d out=%+v err=%v", e.Key, code, out, err)
		}
	}
	table.AddRow("churn on", fmt.Sprintf("%d", len(soaked)),
		soakedElapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f elect/s", float64(len(soaked))/soakedElapsed.Seconds()),
		pct(soaked, 0.50).Round(time.Microsecond).String(),
		pct(soaked, 0.999).Round(time.Microsecond).String(),
		fmt.Sprintf("%d", final.Stats.Cycles),
		fmt.Sprintf("%d", final.Stats.Readmissions),
		fmt.Sprintf("%d", final.Stats.Retries),
		fmt.Sprintf("%d", final.Stats.Failures))

	ws := reg.WALStats()
	table.AddNote("%d closed-loop HTTP clients on %d stable keys; %d keys churned evict→re-admit through the rebuild-in-place admission pipeline", workers, len(stable), len(churn))
	table.AddNote("every served outcome matched its pre-soak reference; every churned key still served after the soak stopped (no lost admissions)")
	table.AddNote("durable registry: policy=%s, %d journal appends, %d completed checkpoints, %d records since last checkpoint", ws.Policy, ws.Appends, ws.Checkpoints, ws.RecordsSinceCheckpoint)
	return table, nil
}
