// Command fleetbench is the repository's benchmark: it boots three election
// nodes and one router in this process on loopback, drives them with one of
// three workloads, checks every answer against an independent oracle, and
// prints one JSON result line. See README.md for the workloads and metrics.
//
// Usage (from the repository root, which run.sh builds from):
//
//	bash fleetbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"anonradio/internal/service"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// work holds the nodes' journals for the run; it is removed at exit.
	work string
	// traceDir receives the traced run's spans.
	traceDir string
	// quick shortens the traced run's ladder (tests).
	quick bool
	// wrong, when set, corrupts the oracle's expectations (tests).
	wrong func(*expect)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		opt   options
		seed  = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		trace = flag.Int("trace", 0, "1 runs the traced run (spans, counters, the ladder) and reports per-layer metrics")
	)
	flag.StringVar(&opt.workload, "workload", serveSmall, "workload: serve-small, serve-large or admit-churn")
	flag.IntVar(&opt.seconds, "seconds", 10, "measured-phase length (admit-churn: sizes its fixed operation sequence)")
	flag.StringVar(&opt.work, "work", "", "journal directory for the run (default .bench_build/work-<pid>; removed at exit)")
	flag.StringVar(&opt.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where the traced run writes its spans")
	flag.Parse()
	opt.seed, opt.trace = *seed, *trace == 1
	if opt.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fleetbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if opt.work == "" {
		opt.work = filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	}
	res, record, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(map[string]any{"run_record": record})
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its result and run record.
func run(opt options) (*result, map[string]any, error) {
	o := &oracle{wrong: opt.wrong}
	in, err := generate(opt.workload, opt.seed, opt.seconds, o)
	if err != nil {
		return nil, nil, err
	}
	b := in.encodeBodies()
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(opt.work)

	var tr *tracer
	if opt.trace {
		tr = newTracer(in)
		tr.on.Store(true)
	}
	d := newDialer()
	cs := [2]*client{newClient(d, tr), newClient(d, tr)}
	// stop shuts the fleet down and drops the generator's kept-alive
	// connections to it, which the next fleet could not answer.
	stop := func(f *fleetUnderTest, snapshotDirs *[3]string) error {
		err := f.shutdownTo(snapshotDirs)
		cs[0].close()
		cs[1].close()
		return err
	}
	k := &checker{}
	m := make(map[string]metric)
	rec := map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu_model": cpuModel(),
	}

	// The run is a series of cycles, each a full set-up, a share of the
	// measured load and a restart, so that every figure is sampled across
	// the whole run rather than in one stretch of it: on a shared host a
	// burst of steal then moves one cycle or window, not the result. The
	// traced run makes the first cycle only, then walks the ladder.
	durable := opt.workload == admitChurn
	cycles := cyclesFor(opt.workload)
	runCycles := cycles
	if tr != nil {
		runCycles = 1
	}
	perSample := 1.0
	if in.batches != nil {
		perSample = batchSize
	}
	admit := in.admissionTasks()
	snapshots := walDirs(filepath.Join(opt.work, "snapshot"))
	var (
		f                        *fleetUnderTest
		setups, recovers, heaps  []float64
		setupWall, recoverWall   []float64
		electWin, regWin, recWin []windowStat
		late                     []float64
		verified, registered     int64
		nreg, n422               int64
		setupWin, loadWin        window
		wall                     time.Duration
		steal, total             uint64
		counters                 *fleetCounters
	)
	defer func() {
		if f != nil {
			_ = stop(f, nil)
		}
	}()
	for c := 0; c < runCycles; c++ {
		// Set-up: boot fresh nodes, admit the key set through the router,
		// elect every key once.
		var p persistence
		walBase := filepath.Join(opt.work, fmt.Sprintf("wal-%d", c))
		if durable {
			dirs := walDirs(walBase)
			p.wal = &dirs
		}
		if tr != nil {
			setupWin.from = tr.now()
		}
		// A daemon boots into an empty heap: collect the previous cycle's
		// fleet before timing this one.
		runtime.GC()
		start, cpu0 := time.Now(), cpuTime()
		if f, err = bootFleet(d, tr, p); err != nil {
			return nil, nil, err
		}
		t0, failed0 := takeTick(start), k.failed.Load()
		lat := runTasks(cs[0], k, admit)
		if !durable {
			// On serve-* the set-up's admissions are the registrations.
			regWin = append(regWin, between(t0, takeTick(start), lat, float64(int64(len(admit))-(k.failed.Load()-failed0))))
		}
		runTasks(cs[0], k, in.electionTasks(k, -1))
		setups, setupWall = append(setups, (cpuTime()-cpu0).Seconds()), append(setupWall, time.Since(start).Seconds())
		if tr != nil {
			setupWin.to = tr.now()
		}

		// This cycle's share of the measured load.
		var samp *sampler
		if tr != nil {
			samp = startSampler(f.regs(), 100*time.Millisecond)
			loadWin.from = tr.now()
		}
		epoch := time.Now()
		tk := startTicker(epoch, time.Second)
		var ticks []tick
		if durable {
			st := churnLoad(cs, k, in, b, in.ops[c], epoch)
			ticks = tk.stop()
			electWin = append(electWin, cut(st.probeLat, ticks, minWindow, 1)...)
			regWin = append(regWin, cut(st.registerLat, ticks, minWindow, 1)...)
			late = append(late, summarize(st.probeLate).p99)
			verified, registered = verified+st.verified, registered+st.registersOK
			for _, o := range in.ops[c] {
				if !o.evict {
					nreg++
					if !in.pool[o.cfg].exp.feasible {
						n422++
					}
				}
			}
		} else {
			lats, n := serveLoad(cs, k, in, b, epoch, time.Duration(opt.seconds)*time.Second/time.Duration(cycles))
			ticks = tk.stop()
			electWin = append(electWin, cut(lats, ticks, minWindow, perSample)...)
			verified += n
		}
		wall += time.Since(epoch)
		first, last := ticks[0], ticks[len(ticks)-1]
		steal, total = steal+last.steal-first.steal, total+last.total-first.total
		if tr != nil {
			loadWin.to = tr.now()
			counters = collectCounters(f, samp.stop())
		}
		heaps = append(heaps, liveHeapMiB())

		// Restart: journaled nodes close without a final checkpoint and
		// reopen their journals; the serve-* nodes snapshot at shutdown
		// and restore the snapshot at boot. Either way every key is then
		// elected once. On admit-churn, whose load elects only at the
		// probe's fixed rate, the restart's elections also give the CPU
		// cost per election.
		p = persistence{restore: &snapshots}
		if err := stop(f, p.restore); durable || err != nil {
			if err != nil {
				return nil, nil, err
			}
			dirs := walDirs(walBase)
			p = persistence{wal: &dirs}
		}
		f = nil
		tasks := in.electionTasks(k, c)
		runtime.GC()
		start, cpu0 = time.Now(), cpuTime()
		if f, err = bootFleet(d, tr, p); err != nil {
			return nil, nil, err
		}
		t0, elections0 := takeTick(start), k.elections.Load()
		runTasks(cs[0], k, tasks)
		recWin = append(recWin, between(t0, takeTick(start), nil, float64(k.elections.Load()-elections0)))
		recovers, recoverWall = append(recovers, (cpuTime()-cpu0).Seconds()), append(recoverWall, time.Since(start).Seconds())
		if c < runCycles-1 {
			_ = stop(f, nil)
			f = nil
			if err := os.RemoveAll(walBase); err != nil {
				return nil, nil, err
			}
		}
	}
	admit = nil

	// Every figure is the median over set-ups, restarts or windows. Set-up
	// and restart are measured as the CPU time they take: that is the work
	// a change can move into them, and a shared host's steal, which moves
	// their wall time by tens of percent between runs, does not inflate it.
	// Latencies are reported in the run record, ungated, for the same
	// reason.
	p50 := func(w windowStat) float64 { return w.lat.p50 }
	p90 := func(w windowStat) float64 { return w.lat.p90 }
	perCPUWin := func(w windowStat) float64 { return perCPU(int64(w.work), w.cpu) }
	m["setup_s"] = metric{median(setups), "s"}
	m["recover_s"] = metric{median(recovers), "s"}
	m["live_heap_mib"] = metric{median(heaps), "MiB"}
	latency := map[string]float64{
		"elect_p50_us":    acrossWindows(electWin, p50),
		"elect_p90_us":    acrossWindows(electWin, p90),
		"register_p50_us": acrossWindows(regWin, p50),
		"register_p90_us": acrossWindows(regWin, p90),
	}
	for name, v := range latency {
		rec[name] = v
	}
	m["register_per_cpu_s"] = metric{acrossWindows(regWin, perCPUWin), "1/s"}
	if durable {
		m["elect_per_cpu_s"] = metric{acrossWindows(recWin, perCPUWin), "1/s"}
	} else {
		m["elect_per_cpu_s"] = metric{acrossWindows(electWin, perCPUWin), "1/s"}
	}
	p99 := func(w windowStat) float64 { return w.lat.p99 }
	rec["elect_p99_us"], rec["register_p99_us"] = acrossWindows(electWin, p99), acrossWindows(regWin, p99)
	var infeasible float64
	if durable {
		infeasible = float64(n422) / float64(nreg)
		rec["registrations_per_wall_s"] = float64(registered) / wall.Seconds()
		rec["probe_late_p99_us"] = median(late)
	}
	if total > 0 {
		rec["steal_share"] = float64(steal) / float64(total)
	}
	rec["elections_per_wall_s"] = float64(verified) / wall.Seconds()
	rec["wall_s"], rec["cycles"] = wall.Seconds(), runCycles
	rec["setup_cpu_s_each"], rec["recover_cpu_s_each"], rec["live_heap_mib_each"] = setups, recovers, heaps
	rec["setup_wall_s_each"], rec["recover_wall_s_each"] = setupWall, recoverWall
	rec["elect_windows"], rec["register_windows"] = len(electWin), len(regWin)
	var steals []float64
	for _, w := range electWin {
		steals = append(steals, w.steal)
	}
	rec["window_steal"] = steals
	electWin, regWin = nil, nil

	if tr != nil {
		tr.on.Store(false)
		electRoute := routeElect
		if in.batches != nil {
			electRoute = routeBatch
		}
		regSpans := loadWin
		if !durable {
			regSpans = setupWin
		}
		ts := tr.analyze(loadWin, regSpans, electRoute)
		rec["trace_requests"], rec["trace_calls"], rec["trace_calls_matched"] = ts.requests, ts.calls, ts.matchedCalls
		rec["trace_node_spans"], rec["trace_node_spans_matched"] = ts.nodes, ts.matchedNodes
		path := filepath.Join(opt.traceDir, fmt.Sprintf("%s-seed%d.tsv", opt.workload, opt.seed))
		if err := tr.write(path); err != nil {
			return nil, nil, err
		}
		rec["trace_file"] = path
		// Drop the spans before the ladder, so its heap — and with it when
		// the collector runs and empties the program's pools — does not
		// depend on how many spans the load recorded.
		tr.reset()
		lad, err := runLadder(f, d, tr, in, b, opt.work, opt.quick)
		if err != nil {
			return nil, nil, err
		}
		m = perLayer(m, latency, lad, ts, counters, f, infeasible, tr)
		rec["ladder"] = lad.rungs
	}
	res := &result{Attempted: k.attempted.Load(), Failed: k.failed.Load(), Metrics: m}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rec["failed_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, rec, nil
}

// minWindow is the fewest latency samples a window should hold.
const minWindow = 200

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sampler reads the registries' queue depths every interval while the
// traced run is under load.
type sampler struct {
	regs  []*service.Registry
	stopc chan struct{}
	wg    sync.WaitGroup
	// queued holds one fleet-wide queue depth per sample; before is the
	// shard counters when sampling began.
	queued []int
	before service.ShardStats
}

func startSampler(regs []*service.Registry, every time.Duration) *sampler {
	s := &sampler{regs: regs, stopc: make(chan struct{}), before: fleetTotals(regs)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.queued = append(s.queued, fleetTotals(regs).Queued)
			}
		}
	}()
	return s
}

func (s *sampler) stop() *sampler {
	close(s.stopc)
	s.wg.Wait()
	return s
}

// fleetTotals sums every node's shard counters.
func fleetTotals(regs []*service.Registry) service.ShardStats {
	var all []service.ShardStats
	for _, r := range regs {
		if st, err := r.Stats(); err == nil {
			all = append(all, st...)
		}
	}
	return service.Totals(all)
}

// fleetCounters are the nodes' counters at the end of the measured phase.
type fleetCounters struct {
	samp      *sampler
	after     service.ShardStats
	admission service.AdmissionStats
	wal       service.WALStats
}

func collectCounters(f *fleetUnderTest, s *sampler) *fleetCounters {
	c := &fleetCounters{samp: s, after: fleetTotals(f.regs())}
	for _, r := range f.regs() {
		a := r.AdmissionStats()
		c.admission.Completed += a.Completed
		c.admission.Rejected += a.Rejected
		c.admission.RebuildHits += a.RebuildHits
		w := r.WALStats()
		c.wal.Appends += w.Appends
		c.wal.Syncs += w.Syncs
		c.wal.Checkpoints += w.Checkpoints
	}
	return c
}

// perLayer assembles the traced run's per-layer metrics.
func perLayer(e2e map[string]metric, latency map[string]float64, l *ladder, ts traceStats, c *fleetCounters, f *fleetUnderTest, infeasible float64, tr *tracer) map[string]metric {
	m := make(map[string]metric)
	us := func(name string, v float64) { m[name] = metric{v, "us"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	ratio := func(name string, v float64) { m[name] = metric{v, "ratio"} }
	allocs := func(name, r string) { count(name, float64(l.rungs[r].Allocs)) }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	us("radio.run_us", l.us("radio.run"))
	count("radio.node_rounds", l.nodeRounds)
	m["radio.ns_per_node_round"] = metric{div(l.rungs["radio.run"].NsOp, l.nodeRounds), "ns"}
	us("canonical.compile_us", l.us("canonical.new"))
	count("canonical.table_rows", l.tableRows)
	us("election.elect_into_us", l.us("election.elect_into"))
	us("election.decide_us", l.us("election.elect_into")-l.us("radio.run"))
	us("election.build_us", l.us("election.build_into"))
	us("election.rebuild_us", l.us("election.rebuild_into"))
	allocs("election.allocs_per_elect", "election.elect_into")
	allocs("election.allocs_per_build", "election.build_into")
	us("core.classify_us", l.us("core.classify"))
	us("core.classify_infeasible_us", l.us("core.classify_infeasible"))
	count("core.iterations", l.iterations)
	ratio("core.infeasible_share", infeasible)
	us("config.parse_us", l.us("config.read"))
	us("service.elect_us", l.us("service.elect"))
	us("service.dispatch_us", l.us("service.elect")-l.us("election.elect_into"))
	us("service.batch_key_us", l.us("service.elect_batch_key")-l.us("election.elect_into"))
	allocs("service.allocs_per_elect", "service.elect")
	var qsum, qmax float64
	for _, q := range c.samp.queued {
		qsum += float64(q)
		qmax = max(qmax, float64(q))
	}
	count("service.queued_mean", div(qsum, float64(len(c.samp.queued))))
	count("service.queued_max", qmax)
	ratio("service.stolen_share", div(float64(c.after.Stolen-c.samp.before.Stolen), float64(c.after.Elections-c.samp.before.Elections)))
	us("service.admission_wait_us", ts.admissionWait/1e3)
	us("service.register_us", l.us("service.register"))
	ratio("service.rebuild_hit_share", div(float64(c.admission.RebuildHits), float64(c.admission.Completed)))
	count("service.busy_rejected", float64(c.admission.Rejected))
	var restored, replayed, admits, compacted float64
	for _, n := range f.nodes {
		if r := n.restore; r != nil {
			restored += float64(r.Entries)
		}
		if r := n.recovery; r != nil {
			restored += float64(r.Checkpoint.Entries)
			if r.Journal != nil {
				replayed += float64(r.Journal.Records)
			}
			admits += float64(r.Admits)
			compacted += float64(r.Compacted)
		}
	}
	count("service.restore_entries", restored)
	us("wal.append_us", l.us("wal.register")-l.us("service.register"))
	ratio("wal.syncs_per_append", div(float64(c.wal.Syncs), float64(c.wal.Appends)))
	m["wal.bytes_per_append"] = metric{l.bytesPerApp, "B"}
	count("wal.checkpoints", float64(c.wal.Checkpoints))
	m["wal.checkpoint_ms"] = metric{l.rungs["wal.checkpoint"].NsOp / 1e6, "ms"}
	count("wal.replayed_records", replayed)
	ratio("wal.compacted_share", div(compacted, admits+compacted))
	us("server.elect_json_us", l.us("server.serve_http_json"))
	us("wire.elect_bin_us", l.us("wire.serve_http_bin"))
	us("server.codec_json_us", l.us("server.serve_http_json")-l.us("service.elect"))
	us("wire.codec_bin_us", l.us("wire.serve_http_bin")-l.us("service.elect"))
	allocs("server.allocs_per_elect_json", "server.serve_http_json")
	allocs("wire.allocs_per_elect_bin", "wire.serve_http_bin")
	us("server.handler_us.elect", ts.handlerElect/1e3)
	us("server.handler_us.register", ts.handlerRegister/1e3)
	us("server.transport_us", l.us("server.loopback_post")-l.us("server.serve_http_json"))
	us("fleet.hop_us", l.us("fleet.routed_post")-l.us("server.loopback_post"))
	us("fleet.router_self_us", ts.routerSelf/1e3)
	count("fleet.node_calls_per_batch", l.callsPerBatch)
	count("fleet.busy_retries", float64(tr.busy.Load()))

	// Self time under load against busy time unloaded: the difference is
	// what the layer waited.
	us("fleet.front_self_us", ts.front/1e3)
	us("server.transport_self_us", ts.transport/1e3)
	us("server.handler_wait_us", ts.handlerPerElection/1e3-l.us("server.serve_http_json"))
	us("server.transport_wait_us", ts.transport/1e3-m["server.transport_us"].Value)
	us("fleet.hop_wait_us", (ts.front+ts.routerSelf)/1e3-m["fleet.hop_us"].Value)
	us("trace.overhead_us", l.tracedNs/1e3-l.us("fleet.routed_post"))
	for _, name := range []string{"elect_p50_us", "elect_p90_us", "register_p50_us"} {
		m["traced."+name] = metric{latency[name], "us"}
	}
	m["traced.elect_per_cpu_s"] = e2e["elect_per_cpu_s"]
	return m
}
