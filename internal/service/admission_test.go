package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/election"
)

// waitAdmission polls until the key's admission reaches a terminal state.
func waitAdmission(t *testing.T, r *Registry, key string) AdmissionStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := r.AdmissionStatus(key)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission of %q never finished (state %s)", key, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitState polls until the key's admission reaches the wanted state.
func waitState(t *testing.T, r *Registry, key string, want AdmissionState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := r.AdmissionStatus(key)
		if st.State == want {
			return
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("admission of %q reached %s, want %s", key, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRegisterAsyncStatus drives the async admission lifecycle: accepted →
// pollable → done → servable, plus the failure terminal for an infeasible
// configuration.
func TestRegisterAsyncStatus(t *testing.T) {
	r := New(Options{Shards: 2, Builders: 2})
	defer r.Close()
	if st := r.AdmissionStatus("never"); st.State != AdmissionUnknown {
		t.Fatalf("unsubmitted key has state %s, want unknown", st.State)
	}
	if err := r.RegisterAsync("good", config.StaggeredClique(8)); err != nil {
		t.Fatal(err)
	}
	if st := waitAdmission(t, r, "good"); st.State != AdmissionDone || st.Err != nil {
		t.Fatalf("async admission ended %s (%v), want done", st.State, st.Err)
	}
	out, err := r.Elect("good")
	if err != nil || !out.Elected() {
		t.Fatalf("elect after async admission: %+v %v", out, err)
	}

	// Infeasible configurations fail through the status, not the submit.
	if err := r.RegisterAsync("bad", config.SymmetricPair()); err != nil {
		t.Fatal(err)
	}
	st := waitAdmission(t, r, "bad")
	if st.State != AdmissionFailed || !errors.Is(st.Err, election.ErrInfeasible) {
		t.Fatalf("infeasible async admission ended %s (%v), want failed/ErrInfeasible", st.State, st.Err)
	}
	if _, err := r.Elect("bad"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("failed admission must not install: %v", err)
	}

	// The compiled-artifact async path installs too.
	cfg := config.StaggeredPath(7, 1)
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Admit(Admission{Key: "artifact", Config: cfg.Marshal(), Artifact: d.Compile(), Async: true}); err != nil {
		t.Fatal(err)
	}
	if st := waitAdmission(t, r, "artifact"); st.State != AdmissionDone {
		t.Fatalf("artifact admission ended %s (%v)", st.State, st.Err)
	}
	if out, err := r.Elect("artifact"); err != nil || out.Leader != d.ExpectedLeader {
		t.Fatalf("artifact elect: %+v %v, want leader %d", out, err, d.ExpectedLeader)
	}

	ast := r.AdmissionStats()
	if ast.Submitted != 3 || ast.Completed != 2 || ast.Failed != 1 || ast.Pending != 0 {
		t.Fatalf("admission stats %+v, want 3 submitted / 2 completed / 1 failed / 0 pending", ast)
	}
}

// TestAdmissionBackpressure pins the bounded-queue contract: with one
// builder deterministically parked mid-build and a queue of one, the third
// admission (and a synchronous one) must fail fast with ErrAdmissionBusy,
// and the queue must drain to completion once the build is released.
func TestAdmissionBackpressure(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	r := New(Options{Shards: 1, Builders: 1, AdmissionQueue: 1, BuildHook: func(string) { <-gate }})
	defer r.Close()
	defer release()

	cfg := config.StaggeredClique(6)
	if err := r.RegisterAsync("a", cfg); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, "a", AdmissionBuilding) // the builder holds "a"; the queue is empty
	if err := r.RegisterAsync("b", cfg); err != nil {
		t.Fatal(err) // fills the queue
	}
	if err := r.RegisterAsync("c", cfg); !errors.Is(err, ErrAdmissionBusy) {
		t.Fatalf("overfull queue accepted an async admission: %v", err)
	}
	// The synchronous path gets the same backpressure instead of blocking.
	if err := r.Register("d", cfg); !errors.Is(err, ErrAdmissionBusy) {
		t.Fatalf("overfull queue accepted a sync admission: %v", err)
	}
	ast := r.AdmissionStats()
	if ast.Rejected != 2 || ast.Pending != 2 {
		t.Fatalf("admission stats %+v, want 2 rejected / 2 pending", ast)
	}

	release()
	for _, key := range []string{"a", "b"} {
		if st := waitAdmission(t, r, key); st.State != AdmissionDone {
			t.Fatalf("admission of %q ended %s (%v) after drain", key, st.State, st.Err)
		}
		if out, err := r.Elect(key); err != nil || !out.Elected() {
			t.Fatalf("elect %q after drain: %+v %v", key, out, err)
		}
	}
	if err := r.Register("c", cfg); err != nil {
		t.Fatalf("admission after drain: %v", err)
	}
}

// TestElectNotBlockedByAdmission is the tentpole regression test: with the
// only shard's key set served while a build for that same shard is
// deterministically held open, elections must keep completing — pre-PR-5
// they queued behind the build on the shard worker.
func TestElectNotBlockedByAdmission(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	r := New(Options{Shards: 1, Builders: 1, AdmissionQueue: 4, BuildHook: func(key string) {
		if key == "slow" {
			<-gate
		}
	}})
	defer r.Close()
	defer release()

	if err := r.Register("hot", config.StaggeredClique(8)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterAsync("slow", config.StaggeredClique(12)); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, "slow", AdmissionBuilding) // the build is in flight on the shard's only possible blocker

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			out, err := r.Elect("hot")
			if err != nil || !out.Elected() {
				done <- fmt.Errorf("elect during admission: %+v %v", out, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("elections blocked behind an in-flight admission on the same shard")
	}

	release()
	if st := waitAdmission(t, r, "slow"); st.State != AdmissionDone {
		t.Fatalf("held admission ended %s (%v)", st.State, st.Err)
	}
	if out, err := r.Elect("slow"); err != nil || !out.Elected() {
		t.Fatalf("elect on the admitted key: %+v %v", out, err)
	}
}

// TestElectCloseRace hammers Elect/Register/ElectBatch/Stats against a
// concurrent Close. Pre-PR-5 the check-then-send race could panic with
// "send on closed channel"; now every post-Close operation must return
// ErrClosed deterministically. Run under -race in CI.
func TestElectCloseRace(t *testing.T) {
	rounds := 25
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		r := New(Options{Shards: 2})
		if err := r.Register("k", config.StaggeredClique(5)); err != nil {
			t.Fatal(err)
		}
		const clients = 8
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		start := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				var outs []Outcome
				for i := 0; ; i++ {
					var err error
					switch c % 4 {
					case 0:
						_, err = r.Elect("k")
					case 1:
						outs, err = r.ElectBatch([]string{"k", "k"}, outs)
					case 2:
						err = r.Register(fmt.Sprintf("k-%d-%d", c, i), config.SingleNode())
					default:
						_, err = r.Stats()
					}
					if err != nil {
						if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrAdmissionBusy) {
							errs <- fmt.Errorf("client %d: %w", c, err)
						} else {
							errs <- nil
						}
						return
					}
				}
			}(c)
		}
		close(start)
		r.Close()
		wg.Wait()
		for c := 0; c < clients; c++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStatsAfterClose pins the closed-registry stats contract: an explicit
// ErrClosed instead of all-zero rows that would read as a healthy empty
// server. Len keeps answering from its cached counter.
func TestStatsAfterClose(t *testing.T) {
	r := New(Options{Shards: 2})
	if err := r.Register("k", config.StaggeredClique(5)); err != nil {
		t.Fatal(err)
	}
	stats, err := r.Stats()
	if err != nil || len(stats) != 2 {
		t.Fatalf("live stats: %d rows, %v", len(stats), err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	r.Close()
	if _, err := r.Stats(); !errors.Is(err, ErrClosed) {
		t.Fatalf("stats after close: %v, want ErrClosed", err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len after close = %d, want the final count 1", r.Len())
	}
	if err := r.RegisterAsync("x", config.SingleNode()); !errors.Is(err, ErrClosed) {
		t.Fatalf("async register after close: %v, want ErrClosed", err)
	}
}

// TestLenDuringSlowAdmission pins the liveness-probe contract behind
// /healthz, and that admissions never wait for a shard worker: while the
// only shard worker is parked on an election whose entry lock the test
// holds, Len answers from its cached counter, and a Register of another key
// on the same shard installs and returns.
func TestLenDuringSlowAdmission(t *testing.T) {
	r := New(Options{Shards: 1})
	defer r.Close()
	if err := r.Register("held", config.StaggeredClique(5)); err != nil {
		t.Fatal(err)
	}
	sh := r.shards[0]
	e := sh.current()["held"]
	e.mu.Lock()
	release := sync.OnceFunc(e.mu.Unlock)
	defer release()

	// Queue the election as Elect does, so the test knows when it was
	// queued: submit raises the shard's queued count before it returns, and
	// the worker lowers it when it takes the election, which then waits on
	// the held entry lock.
	if !r.acquire() {
		t.Fatal("registry closed")
	}
	done := sync.OnceFunc(r.release)
	defer done()
	reply := make(chan Outcome, 1)
	r.submit("held", 0, reply)
	for deadline := time.Now().Add(5 * time.Second); sh.queued.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the shard worker never took the held election")
		}
		time.Sleep(time.Millisecond)
	}

	slowDone := make(chan error, 1)
	go func() { slowDone <- r.Register("slow", config.StaggeredClique(6)) }()
	select {
	case err := <-slowDone:
		if err != nil {
			t.Fatalf("register while the worker is parked: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("register waited for a parked shard worker")
	}
	lenDone := make(chan int, 1)
	go func() { lenDone <- r.Len() }()
	select {
	case n := <-lenDone:
		if n != 2 {
			t.Fatalf("Len while the worker is parked = %d, want 2", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Len blocked behind a parked shard worker")
	}
	select {
	case out := <-reply:
		t.Fatalf("elect on the held entry returned early: %+v", out)
	default:
	}

	release()
	out := <-reply
	done()
	if out.Err != nil || !out.Elected() {
		t.Fatalf("elect after release: %+v", out)
	}
	if out, err := r.Elect("slow"); err != nil || !out.Elected() {
		t.Fatalf("elect slow: %+v, %v", out, err)
	}
}

// TestAdmissionRecordsBounded pins the memory bound of the status map:
// eviction drops a key's completed record, and unbounded key churn sweeps
// terminal records once the cap is hit instead of leaking one per key.
func TestAdmissionRecordsBounded(t *testing.T) {
	r := New(Options{Shards: 1, Builders: 1, AdmissionQueue: 1})
	defer r.Close()
	if err := r.Register("k", config.SingleNode()); err != nil {
		t.Fatal(err)
	}
	if st := r.AdmissionStatus("k"); st.State != AdmissionDone {
		t.Fatalf("admission record for k: %s, want done", st.State)
	}
	if ok, err := r.Evict("k"); !ok || err != nil {
		t.Fatal("evicting k should report true")
	}
	if st := r.AdmissionStatus("k"); st.State != AdmissionUnknown {
		t.Fatalf("evicted key still has an admission record: %s", st.State)
	}

	limit := r.admitCap()
	for i := 0; i < limit+limit/2; i++ {
		if err := r.Register(fmt.Sprintf("churn-%d", i), config.SingleNode()); err != nil {
			t.Fatal(err)
		}
	}
	r.admitMu.Lock()
	size := len(r.admitted)
	r.admitMu.Unlock()
	if size > limit {
		t.Fatalf("admission map grew to %d records, cap %d", size, limit)
	}
	// Pruning only touches records, never admitted configurations.
	if out, err := r.Elect("churn-0"); err != nil || !out.Elected() {
		t.Fatalf("elect on a pruned-record key: %+v %v", out, err)
	}
}
