package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/election"
	"anonradio/internal/radio"
	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wal"
)

// The ladder is the traced run's second half: unloaded direct calls on the
// workload's own keys, one rung per layer, each timed through the layer's
// public functions. A layer's busy time is its rung minus the rung below.
//
//	elections:  Simulator.Run → Dedicated.ElectInto → Registry.Elect /
//	            ElectBatch → node Handler().ServeHTTP (JSON, binary) →
//	            loopback POST to the owning node → POST through the router
//	admissions: config.Read → Turbo.Classify → canonical.New →
//	            BuildDedicatedInto / RebuildInto → Registry.Register
//	            without a journal → with one

// rung is one ladder step's cost per operation.
type rung struct {
	Name   string  `json:"name"`
	NsOp   float64 `json:"ns_per_op"`
	Allocs uint64  `json:"allocs_per_op"`
	Bytes  uint64  `json:"bytes_per_op"`
	Ops    int     `json:"ops"`
}

// ladderKeys caps how many keys a rung cycles through; allocItems caps how
// many of them the allocation count covers.
const (
	ladderKeys = 256
	allocItems = 64
)

// measure runs f over n items: one verified warm-up pass, then whole timed
// passes until budget is spent (at most maxPasses; at least one), then the
// allocation count. Allocations are counted as testing.AllocsPerRun counts
// them — over passes of at most allocItems items after a warm pass, with
// one P and the collector paused, in whole numbers per operation — so that
// neither the collector emptying the program's pools nor which P a pooled
// object landed on moves the count; the least of three passes is kept,
// since the runtime itself allocates now and then (a new thread when a
// syscall blocks), and never frees. The count repeats exactly from run to
// run.
func measure(name string, n int, budget time.Duration, maxPasses int, f func(i int, verify bool) error) (rung, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i, true); err != nil {
			return rung{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	passes := int(budget / max(time.Since(start), time.Microsecond))
	passes = max(1, min(passes, maxPasses))
	runtime.GC()
	start = time.Now()
	for p := 0; p < passes; p++ {
		for i := 0; i < n; i++ {
			if err := f(i, false); err != nil {
				return rung{}, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	r := rung{Name: name, NsOp: float64(time.Since(start).Nanoseconds()) / float64(passes*n), Ops: passes * n}

	k := min(n, allocItems)
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
		runtime.GC()
	}()
	var m0, m1 runtime.MemStats
	r.Allocs, r.Bytes = math.MaxUint64, math.MaxUint64
	for pass := 0; pass < 4; pass++ {
		runtime.ReadMemStats(&m0)
		for i := 0; i < k; i++ {
			if err := f(i, false); err != nil {
				return rung{}, fmt.Errorf("%s: %w", name, err)
			}
		}
		runtime.ReadMemStats(&m1)
		if pass > 0 { // the first pass warms the pools
			r.Allocs = min(r.Allocs, (m1.Mallocs-m0.Mallocs)/uint64(k))
			r.Bytes = min(r.Bytes, (m1.TotalAlloc-m0.TotalAlloc)/uint64(k))
		}
	}
	return r, nil
}

// recorder is a reusable http.ResponseWriter for the ServeHTTP rungs.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(s int)   { r.status = s }
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.h)
	r.status = 0
	r.body.Reset()
}

// rewindBody is a reusable request body.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// ladder is the traced run's ladder result: every rung, plus the counts
// measured alongside.
type ladder struct {
	rungs         map[string]rung
	nodeRounds    float64
	tableRows     float64
	iterations    float64
	bytesPerApp   float64
	callsPerBatch float64
	// tracedNs is the routed POST rung's ns/op with tracing on.
	tracedNs float64
}

func (l *ladder) us(name string) float64 { return l.rungs[name].NsOp / 1e3 }

func (l *ladder) add(r rung, err error) error {
	if err != nil {
		return err
	}
	l.rungs[r.Name] = r
	return nil
}

// runLadder walks both ladders; quick shortens every rung (tests).
func runLadder(f *fleetUnderTest, d *dialer, tr *tracer, in *inputs, b *bodies, work string, quick bool) (*ladder, error) {
	budget := 400 * time.Millisecond
	if quick {
		budget = 20 * time.Millisecond
	}
	// The probe loop polls node health once a second, allocating on the
	// way; stop it so the rungs' allocation counts are the rungs' own.
	f.router.Stop()
	l := &ladder{rungs: make(map[string]rung)}
	if err := l.elections(f, d, tr, in, b, budget); err != nil {
		return nil, err
	}
	if err := l.admissions(in, work, budget); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ladder) elections(f *fleetUnderTest, d *dialer, tr *tracer, in *inputs, b *bodies, budget time.Duration) error {
	keys := in.stable[:min(len(in.stable), ladderKeys)]
	n := len(keys)
	ds := make([]*election.Dedicated, n)
	sims := make([]*radio.Simulator, n)
	outs := make([]radio.ElectionOutcome, n)
	owner := make([]int, n)
	fl := f.router.Fleet()
	var rounds, rows float64
	for i, it := range keys {
		cfg, err := it.spec.config()
		if err != nil {
			return err
		}
		if ds[i], err = election.BuildDedicated(cfg); err != nil {
			return err
		}
		if sims[i], err = radio.NewSimulator(ds[i].Config); err != nil {
			return err
		}
		owner[i] = int(nodeIndex(strings.TrimPrefix(fl.Owner(it.key), "http://")))
		rounds += float64(cfg.N()) * float64(it.exp.rounds)
		for _, m := range ds[i].DRIP.Table().Matches {
			rows += float64(len(m.Rows))
		}
	}
	l.nodeRounds, l.tableRows = rounds/float64(n), rows/float64(n)

	err := l.add(measure("radio.run", n, budget, 200, func(i int, verify bool) error {
		d := ds[i]
		res, err := sims[i].Run(d.Algorithm.Protocol, radio.Options{MaxRounds: d.RoundBound + 1})
		if err == nil && verify && res.GlobalRounds != int(keys[i].exp.rounds) {
			err = fmt.Errorf("key %s: %d rounds, want %d", keys[i].key, res.GlobalRounds, keys[i].exp.rounds)
		}
		return err
	}))
	if err == nil {
		err = l.add(measure("election.elect_into", n, budget, 200, func(i int, verify bool) error {
			err := ds[i].ElectInto(&outs[i], radio.Options{})
			if err == nil && verify && (outs[i].Leader() != int(keys[i].exp.leader) || outs[i].Rounds != int(keys[i].exp.rounds)) {
				err = fmt.Errorf("key %s: leaders %v in %d rounds", keys[i].key, outs[i].Leaders, outs[i].Rounds)
			}
			return err
		}))
	}
	if err == nil {
		err = l.add(measure("service.elect", n, budget, 200, func(i int, verify bool) error {
			out, err := f.nodes[owner[i]].reg.Elect(keys[i].key)
			if err == nil && verify && (out.Leader != int(keys[i].exp.leader) || out.Rounds != int(keys[i].exp.rounds)) {
				err = fmt.Errorf("key %s: leader %d in %d rounds", keys[i].key, out.Leader, out.Rounds)
			}
			return err
		}))
	}
	if err == nil {
		err = l.batchRung(f, keys, owner, budget)
	}
	for _, enc := range []string{"json", "bin"} {
		if err == nil {
			err = l.serveHTTPRung(f, keys, owner, b, enc, budget)
		}
	}
	if err != nil {
		return err
	}
	direct := newClient(d, nil)
	defer direct.close()
	routed := newClient(d, tr)
	defer routed.close()
	post := func(c *client, host func(i int) string) func(int, bool) error {
		return func(i int, verify bool) error {
			status, resp, err := c.send(host(i), http.MethodPost, "/v1/elect", "application/json", b.electJSON[i], spanRef{route: routeElect, key: int32(i)})
			if err == nil && verify {
				err = verifyElectJSON(status, resp, keys[i].key, keys[i].exp)
			}
			return err
		}
	}
	toOwner := func(i int) string { return nodeNames[owner[i]] }
	toRouter := func(int) string { return routerName }
	err = l.add(measure("server.loopback_post", n, budget, 50, post(direct, toOwner)))
	if err == nil {
		err = l.add(measure("fleet.routed_post", n, budget, 50, post(routed, toRouter)))
	}
	if err == nil {
		tr.on.Store(true)
		// The same rung with the wrappers recording: its time against the
		// untraced rung's is the tracing overhead per request. It is kept
		// out of the rungs because the span store's growth makes its
		// allocation count depend on how many spans the run recorded.
		var r rung
		if r, err = measure("trace.routed_post_traced", n, budget, 50, post(routed, toRouter)); err == nil {
			l.tracedNs = r.NsOp
		}
		tr.on.Store(false)
	}
	if err == nil {
		err = l.routedBatches(routed, tr, in, b, budget)
	}
	return err
}

// batchRung elects 16 keys at a time with Registry.ElectBatch, each batch
// drawn from one node's keys, and reports the cost per key.
func (l *ladder) batchRung(f *fleetUnderTest, keys []item, owner []int, budget time.Duration) error {
	var (
		batches [][]string
		nodeOf  []int
	)
	for node := range f.nodes {
		var own []string
		for i, it := range keys {
			if owner[i] == node {
				own = append(own, it.key)
			}
		}
		for s := 0; s < len(own); s += batchSize {
			batch := make([]string, batchSize)
			for j := range batch {
				batch[j] = own[(s+j)%len(own)]
			}
			batches = append(batches, batch)
			nodeOf = append(nodeOf, node)
		}
	}
	var outs []service.Outcome
	r, err := measure("service.elect_batch", len(batches), budget, 200, func(i int, _ bool) error {
		var err error
		outs, err = f.nodes[nodeOf[i]].reg.ElectBatch(batches[i], outs[:0])
		return err
	})
	if err != nil {
		return err
	}
	r.Name, r.NsOp, r.Ops = "service.elect_batch_key", r.NsOp/batchSize, r.Ops*batchSize
	r.Allocs, r.Bytes = r.Allocs/batchSize, r.Bytes/batchSize
	l.rungs[r.Name] = r
	return nil
}

// serveHTTPRung drives each key's owning node handler in process.
func (l *ladder) serveHTTPRung(f *fleetUnderTest, keys []item, owner []int, b *bodies, enc string, budget time.Duration) error {
	body, ct, name := b.electJSON, "application/json", "server.serve_http_json"
	if enc == "bin" {
		body, ct, name = b.electBin, server.ContentTypeBinary, "wire.serve_http_bin"
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/elect", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ct)
	rb := &rewindBody{}
	rec := &recorder{h: make(http.Header)}
	return l.add(measure(name, len(keys), budget, 200, func(i int, verify bool) error {
		// The server wraps the body it is handed, so hand it ours anew.
		rb.Reset(body[i])
		req.Body, req.ContentLength = rb, int64(len(body[i]))
		rec.reset()
		f.nodes[owner[i]].srv.Handler().ServeHTTP(rec, req)
		if !verify {
			return nil
		}
		if enc == "bin" {
			return verifyElectBin(rec.status, rec.body.Bytes(), keys[i].key, keys[i].exp)
		}
		return verifyElectJSON(rec.status, rec.body.Bytes(), keys[i].key, keys[i].exp)
	}))
}

// routedBatches posts 16-key batches through the router and counts the
// node calls the router makes per batch.
func (l *ladder) routedBatches(c *client, tr *tracer, in *inputs, b *bodies, budget time.Duration) error {
	bodies := b.batchJSON
	if bodies == nil {
		n := min(len(in.stable), ladderKeys)
		for s := 0; s+batchSize <= n; s += batchSize {
			keys := make([]string, batchSize)
			for j := range keys {
				keys[j] = in.stable[s+j].key
			}
			js, _ := json.Marshal(map[string][]string{"keys": keys})
			bodies = append(bodies, js)
		}
	}
	bodies = bodies[:min(len(bodies), 64)]
	before := tr.calls[routeBatch].Load()
	r, err := measure("fleet.routed_batch", len(bodies), budget, 20, func(i int, _ bool) error {
		status, resp, err := c.do(http.MethodPost, "/v1/elect/batch", "application/json", bodies[i], spanRef{route: routeBatch, key: -1})
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, resp)
		}
		return err
	})
	if err != nil {
		return err
	}
	l.rungs[r.Name] = r
	// The warm-up pass counts too.
	l.callsPerBatch = float64(tr.calls[routeBatch].Load()-before) / float64(r.Ops+len(bodies))
	return nil
}

func (l *ladder) admissions(in *inputs, work string, budget time.Duration) error {
	// The registration configurations: the churn pool on admit-churn, the
	// served keys' own configurations elsewhere.
	regs := in.pool
	infeasible := in.infeasible
	if regs == nil {
		regs = in.stable[:min(len(in.stable), ladderKeys)]
	} else {
		infeasible = nil
		for _, it := range regs {
			if !it.exp.feasible {
				infeasible = append(infeasible, it.spec)
			}
		}
	}
	texts := make([]string, len(regs))
	cfgs := make([]*config.Config, len(regs))
	var feasible []*config.Config
	for i, it := range regs {
		texts[i] = it.spec.text()
		var err error
		if cfgs[i], err = it.spec.config(); err != nil {
			return err
		}
		if it.exp.feasible {
			feasible = append(feasible, cfgs[i])
		}
	}
	bad := make([]*config.Config, len(infeasible))
	for i, s := range infeasible {
		var err error
		if bad[i], err = s.config(); err != nil {
			return err
		}
	}

	err := l.add(measure("config.read", len(texts), budget, 200, func(i int, _ bool) error {
		_, err := config.Read(strings.NewReader(texts[i]))
		return err
	}))
	turbo := core.NewTurbo()
	reports := make([]*core.Report, len(feasible))
	if err == nil {
		err = l.add(measure("core.classify", len(feasible), budget, 200, func(i int, verify bool) error {
			r, err := turbo.Classify(feasible[i], core.ClassifyOptions{})
			if err == nil && verify {
				if !r.Feasible() {
					return fmt.Errorf("turbo classifier calls a feasible configuration infeasible")
				}
				reports[i] = r
			}
			return err
		}))
	}
	if err == nil {
		err = l.add(measure("core.classify_infeasible", len(bad), budget, 200, func(i int, verify bool) error {
			r, err := turbo.Classify(bad[i], core.ClassifyOptions{})
			if err == nil && verify && r.Feasible() {
				err = fmt.Errorf("turbo classifier calls a mirror-symmetric configuration feasible")
			}
			return err
		}))
	}
	if err != nil {
		return err
	}
	var iters float64
	for _, c := range cfgs {
		r, err := turbo.Classify(c, core.ClassifyOptions{})
		if err != nil {
			return err
		}
		iters += float64(r.Iterations())
	}
	l.iterations = iters / float64(len(cfgs))

	err = l.add(measure("canonical.new", len(reports), budget, 200, func(i int, _ bool) error {
		_, err := canonical.New(reports[i])
		return err
	}))
	arena := election.NewBuildArena()
	if err == nil {
		err = l.add(measure("election.build_into", len(feasible), budget, 200, func(i int, _ bool) error {
			_, err := election.BuildDedicatedInto(arena, feasible[i])
			return err
		}))
	}
	// Rebuild each configuration into the algorithm last built in its
	// size class, as the registry's retired pool does.
	prev := make(map[int]*election.Dedicated)
	if err == nil {
		err = l.add(measure("election.rebuild_into", len(feasible), budget, 200, func(i int, _ bool) error {
			class := sizeClass(feasible[i].N())
			d, err := arena.RebuildInto(prev[class], feasible[i])
			prev[class] = d
			return err
		}))
	}
	if err == nil {
		err = l.registerRungs(regs, cfgs, work)
	}
	return err
}

// sizeClass is the bit length of n, the registry's retired-pool bucket.
func sizeClass(n int) int {
	c := 0
	for ; n > 0; n >>= 1 {
		c++
	}
	return c
}

// registerRungs times Registry.Register on a registry without a journal,
// then on one with a journal synced on every append. Both first admit
// every configuration under its own key, then — timed — re-register each
// key with the next configurations, the churn path. Each registry has one
// builder, so every build reuses the same arena whichever way the
// scheduler runs (with two, the count of allocations would depend on which
// builder took which job), and the journaled one takes no background
// checkpoints, so its rung times appends alone; the checkpoint rung times
// checkpoints.
func (l *ladder) registerRungs(regs []item, cfgs []*config.Config, work string) error {
	dir := filepath.Join(work, "ladder-wal")
	defer os.RemoveAll(dir)
	plain := service.New(service.Options{Builders: 1})
	defer plain.Close()
	durable, _, err := service.Open(service.Options{Builders: 1, WAL: service.WALOptions{Dir: dir, Sync: wal.SyncAlways, CheckpointRecords: -1}})
	if err != nil {
		return err
	}
	defer durable.Close()
	n := len(regs)
	for _, c := range []struct {
		name string
		reg  *service.Registry
	}{{"service.register", plain}, {"wal.register", durable}} {
		calls := 0
		r, err := measure(c.name, n, time.Hour, 3, func(i int, _ bool) error {
			j := (i + calls/n) % n // pass p registers configuration i+p under key i
			calls++
			err := c.reg.Register(fmt.Sprintf("ladder-%d", i), cfgs[j])
			if regs[j].exp.feasible != (err == nil) {
				return fmt.Errorf("registering configuration %d: %v (feasible %v)", j, err, regs[j].exp.feasible)
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.rungs[r.Name] = r
	}
	if ws := durable.WALStats(); ws.Appends > 0 {
		l.bytesPerApp = float64(ws.JournalBytes) / float64(ws.Appends)
	}
	// A checkpoint snapshots every registered configuration and truncates
	// the journal; the first one also truncates the passes above.
	return l.add(measure("wal.checkpoint", 1, time.Hour, 3, func(int, bool) error { return durable.Checkpoint() }))
}
