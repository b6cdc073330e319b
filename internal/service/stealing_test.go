package service

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/radio"
)

// hammerElect runs workers goroutines, each electing every key in keys
// iters times, and fails the test on any outcome that differs from want
// (unless allowUnknown admits ErrUnknownKey, for tests that evict
// concurrently).
func hammerElect(t *testing.T, r *Registry, keys []string, want map[string][2]int, workers, iters int, allowUnknown bool) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, key := range keys {
					out, err := r.Elect(key)
					if err != nil {
						if allowUnknown && errors.Is(err, ErrUnknownKey) {
							continue
						}
						errs <- fmt.Errorf("elect %s: %v", key, err)
						return
					}
					if exp := want[key]; out.Leader != exp[0] || out.Rounds != exp[1] {
						errs <- fmt.Errorf("elect %s: got (%d, %d rounds), want (%d, %d rounds)",
							key, out.Leader, out.Rounds, exp[0], exp[1])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWorkStealingBitIdentical runs the same concurrent hot-key workload
// against a stealing and a non-stealing registry and pins every served
// outcome — stolen or home-served — to the direct Dedicated.Elect result,
// untraced and traced. Work stealing moves *where* an election executes,
// never what it computes. A registry steals whenever it has two or more
// shards, so the stealing case runs four shards and the other one shard,
// which has no sibling to steal from.
func TestWorkStealingBitIdentical(t *testing.T) {
	want := make(map[string][2]int)
	keys := make([]string, 0, len(testConfigs()))
	for key, cfg := range testConfigs() {
		keys = append(keys, key)
		d, err := election.BuildDedicated(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ref [2]int
		for i, traced := range []bool{false, true} {
			direct, err := d.Elect(radio.Options{RecordTrace: traced})
			if err != nil {
				t.Fatalf("%s direct: %v", key, err)
			}
			if i == 0 {
				ref = [2]int{direct.Leader(), direct.Rounds}
			} else if direct.Leader() != ref[0] || direct.Rounds != ref[1] {
				t.Fatalf("%s: the traced election disagrees with the untraced one", key)
			}
		}
		want[key] = ref
	}
	for _, stealing := range []bool{true, false} {
		t.Run(fmt.Sprintf("stealing=%v", stealing), func(t *testing.T) {
			shards := 1
			if stealing {
				shards = 4
			}
			r := New(Options{Shards: shards})
			t.Cleanup(r.Close)
			for key, cfg := range testConfigs() {
				if err := r.Register(key, cfg); err != nil {
					t.Fatal(err)
				}
			}
			hammerElect(t, r, keys, want, 16, 20, false)
			stats, err := r.Stats()
			if err != nil {
				t.Fatal(err)
			}
			total := Totals(stats)
			if got := int64(16 * 20 * len(keys)); total.Elections != got {
				t.Fatalf("elections %d, want %d", total.Elections, got)
			}
			if total.Stolen != total.StolenFrom {
				t.Fatalf("stolen %d != stolen-from %d", total.Stolen, total.StolenFrom)
			}
			if !stealing && total.Stolen != 0 {
				t.Fatalf("a one-shard registry stole %d elections", total.Stolen)
			}
		})
	}
}

// TestWorkStealingRelievesHotShard drives a single hot key hard enough to
// queue work on its home shard and asserts a sibling worker actually
// steals some of it (the mechanism fleetbench's service.stolen_share
// measures): Stolen lands on the thief's row, StolenFrom on the home row,
// and the two totals agree.
func TestWorkStealingRelievesHotShard(t *testing.T) {
	// A thief needs scheduler slots of its own: under GOMAXPROCS=1 the home
	// worker drains its queue in one time slice and the sibling never
	// observes a backlog. Raise the parallelism (works even on one physical
	// core — slices interleave) so the mechanism is testable everywhere.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := New(Options{Shards: 2})
	t.Cleanup(r.Close)
	cfg := config.StaggeredClique(16)
	if err := r.Register("hot", cfg); err != nil {
		t.Fatal(err)
	}
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := d.Elect(radio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]int{"hot": {direct.Leader(), direct.Rounds}}
	for attempt := 0; attempt < 50; attempt++ {
		hammerElect(t, r, []string{"hot"}, want, 32, 5, false)
		stats, err := r.Stats()
		if err != nil {
			t.Fatal(err)
		}
		total := Totals(stats)
		if total.Stolen != total.StolenFrom {
			t.Fatalf("stolen %d != stolen-from %d", total.Stolen, total.StolenFrom)
		}
		if total.Stolen > 0 {
			home := r.shardFor("hot").id
			for _, s := range stats {
				if s.Shard == home && s.Stolen > 0 && s.StolenFrom == 0 {
					t.Fatalf("home shard %d recorded a steal against itself: %+v", home, s)
				}
			}
			t.Logf("stole %d of %d elections after %d rounds", total.Stolen, total.Elections, attempt+1)
			return
		}
	}
	t.Fatal("no election was ever stolen from a saturated home shard")
}

// TestStealVsEvictStress races hot-key elections (home-served and stolen)
// against eviction and re-admission churn on the same key. Every outcome
// must be either the correct election or a clean unknown-key failure —
// never a torn read, a panic, or a wrong leader. Run with -race, this is
// the PR's memory-safety acceptance check for the thief/evict/rebuild
// interplay.
func TestStealVsEvictStress(t *testing.T) {
	r := New(Options{Shards: 4})
	t.Cleanup(r.Close)
	cfg := config.StaggeredClique(12)
	if err := r.Register("churn", cfg); err != nil {
		t.Fatal(err)
	}
	// Background load on stable keys keeps every worker busy enough to
	// steal while the churn key flaps.
	for i := 0; i < 4; i++ {
		if err := r.Register(fmt.Sprintf("stable-%d", i), config.StaggeredClique(8+i)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := d.Elect(radio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]int{"churn": {direct.Leader(), direct.Rounds}}

	stop := make(chan struct{})
	var churner sync.WaitGroup
	churner.Add(1)
	go func() {
		defer churner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Evict("churn")
			if err := r.Register("churn", cfg); err != nil {
				t.Errorf("re-register churn: %v", err)
				return
			}
			_ = i
		}
	}()
	hammerElect(t, r, []string{"churn"}, want, 16, 30, true)
	close(stop)
	churner.Wait()
	if t.Failed() {
		return
	}
	// The key must still serve correctly after the storm.
	out, err := r.Elect("churn")
	if err != nil || out.Leader != direct.Leader() || out.Rounds != direct.Rounds {
		t.Fatalf("post-stress elect: %+v, %v", out, err)
	}
}

// TestGatherSkipsEvictedEntry pins the stale-view hazard of the gathers:
// Snapshot, ExportArtifact and FaultKeyStats read a shard's view and only
// then lock each entry, so an eviction can tombstone an entry in between.
// The test holds the entry's read lock while Evict waits for the write
// side; a gather that reads the view then queues behind the pending
// eviction and takes the entry lock only after the tombstone. It must leave
// the key out, not compile a nil algorithm.
func TestGatherSkipsEvictedEntry(t *testing.T) {
	gathers := []struct {
		name, frame string // frame: the gather's function in a goroutine dump
		run         func(t *testing.T, r *Registry)
	}{
		{"Snapshot", "(*Registry).SnapshotEntries", func(t *testing.T, r *Registry) {
			m, err := r.Snapshot(t.TempDir())
			if err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			if len(m.Entries) != 1 || m.Entries[0].Key != "kept" {
				t.Errorf("snapshot entries %+v, want only kept", m.Entries)
			}
		}},
		{"ExportArtifact", "(*Registry).ExportArtifact", func(t *testing.T, r *Registry) {
			if _, err := r.ExportArtifact("gone"); !errors.Is(err, ErrUnknownKey) {
				t.Errorf("export of the evicted key: %v, want ErrUnknownKey", err)
			}
		}},
		{"FaultKeyStats", "(*Registry).FaultKeyStats", func(t *testing.T, r *Registry) {
			rows, err := r.FaultKeyStats()
			if err != nil {
				t.Errorf("fault stats: %v", err)
				return
			}
			if len(rows) != 1 || rows[0].Key != "kept" {
				t.Errorf("fault stats rows %+v, want only kept", rows)
			}
		}},
	}
	for _, g := range gathers {
		t.Run(g.name, func(t *testing.T) {
			r := New(Options{Shards: 1, Fault: &radio.FaultPlan{Seed: 1}})
			defer r.Close()
			for _, key := range []string{"gone", "kept"} {
				if err := r.Register(key, config.StaggeredClique(5)); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Elect(key); err != nil {
					t.Fatal(err)
				}
			}
			e := r.shards[0].current()["gone"]
			e.mu.RLock()
			evicted := make(chan bool, 1)
			go func() {
				ok, _ := r.Evict("gone")
				evicted <- ok
			}()
			waitBlockedIn(t, "(*Registry).Evict")
			gathered := make(chan struct{})
			go func() {
				defer close(gathered)
				g.run(t, r)
			}()
			waitBlockedIn(t, g.frame)
			e.mu.RUnlock()
			if !<-evicted {
				t.Error("evict reported the key absent")
			}
			<-gathered
		})
	}
}

// waitBlockedIn waits until a goroutine whose stack holds fn waits on a
// sync lock.
func waitBlockedIn(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if head, _, _ := strings.Cut(g, "\n"); strings.Contains(head, "[sync.") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine in %s waits on a lock", fn)
}

// TestHotKeyFaultAccountConcurrent hammers one faulted key from parallel
// clients on a stealing registry until some of its elections ran on a
// thief, so elections of the key overlap on two workers. Every outcome
// must equal a direct election under the same plan, and the key's fault
// account must be exactly the number of elections times one election's
// account: a lost update in the overlapping counters breaks the equality,
// and under -race a non-atomic one is reported.
func TestHotKeyFaultAccountConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	plan := &radio.FaultPlan{Seed: 11, Drop: 0.1, Noise: 0.02, Outages: []radio.Outage{{Node: 2, From: 5, To: 40}}}
	cfg := config.StaggeredClique(16)
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var direct radio.ElectionOutcome
	if err := d.ElectInto(&direct, radio.Options{Fault: plan}); err != nil {
		t.Fatal(err)
	}
	one, verifyErr := direct.Result.Faults, d.Verify(&direct)
	if one.Drops+one.Noise+one.OutageRounds == 0 {
		t.Fatal("the plan injected no fault into one election")
	}
	r := New(Options{Shards: 4, Fault: plan})
	t.Cleanup(r.Close)
	if err := r.Register("hot", cfg); err != nil {
		t.Fatal(err)
	}
	const clients, iters = 16, 10
	var elections int64
	for attempt := 0; attempt < 50; attempt++ {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					out, err := r.Elect("hot")
					switch {
					case (err != nil) != (verifyErr != nil):
						errs <- fmt.Errorf("elect: %v, a direct election's verdict is %v", err, verifyErr)
						return
					case err == nil && (out.Leader != direct.Leader() || out.Rounds != direct.Rounds):
						errs <- fmt.Errorf("elect: leader %d in %d rounds, want %d in %d", out.Leader, out.Rounds, direct.Leader(), direct.Rounds)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		elections += clients * iters
		stats, err := r.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if Totals(stats).Stolen > 0 {
			break
		}
	}
	rows, err := r.FaultKeyStats()
	if err != nil || len(rows) != 1 {
		t.Fatalf("fault stats: %v, %v", rows, err)
	}
	want := KeyFaultStats{Key: "hot", Elections: elections, Drops: elections * one.Drops, Noise: elections * one.Noise, OutageRounds: elections * one.OutageRounds}
	if rows[0] != want {
		t.Fatalf("fault account %+v, want %+v", rows[0], want)
	}
}

// BenchmarkStealHotKey measures serving one hot key from parallel clients
// on a four-shard registry: idle sibling workers take elections from the
// hot shard's queue and run them on their own simulators, beside the home
// worker's (the steal path is the same ElectOn, only the executing worker
// changes). Four clients per GOMAXPROCS keep the hot queue two or more
// deep, the depth a thief needs; with one client per GOMAXPROCS, at
// GOMAXPROCS 2 at most one election waits behind the running one, and a
// thief rarely finds one to take. The top-level case serves a 16-clique;
// the clique96 case serves a serve-large-sized key, whose elections last
// long enough for two of them to overlap. The cases keep the
// "stealing=true" names of BENCH_engines.json's records, from when
// stealing could be switched off.
func BenchmarkStealHotKey(b *testing.B) {
	bench := func(b *testing.B, cfg *config.Config) {
		b.Run("stealing=true", func(b *testing.B) {
			r := New(Options{Shards: 4})
			defer r.Close()
			if err := r.Register("hot", cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetParallelism(4)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if out, err := r.Elect("hot"); err != nil || !out.Elected() {
						b.Fatalf("elect: %+v, %v", out, err)
					}
				}
			})
		})
	}
	bench(b, config.StaggeredClique(16))
	b.Run("clique96", func(b *testing.B) { bench(b, config.StaggeredClique(96)) })
}
