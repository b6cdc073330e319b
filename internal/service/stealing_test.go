package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

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
// outcome — stolen or home-served — to the direct Dedicated.Elect result
// on every engine. Work stealing moves *where* an election executes, never
// what it computes.
func TestWorkStealingBitIdentical(t *testing.T) {
	engines := []radio.Engine{
		nil, // pooled sequential
		radio.Sequential{},
		radio.Parallel{},
	}
	want := make(map[string][2]int)
	keys := make([]string, 0, len(testConfigs()))
	for key, cfg := range testConfigs() {
		keys = append(keys, key)
		d, err := election.BuildDedicated(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ref [2]int
		for i, eng := range engines {
			direct, err := d.Elect(eng, radio.Options{})
			if err != nil {
				t.Fatalf("%s direct: %v", key, err)
			}
			if i == 0 {
				ref = [2]int{direct.Leader(), direct.Rounds}
			} else if direct.Leader() != ref[0] || direct.Rounds != ref[1] {
				t.Fatalf("%s: engine %s disagrees with pooled", key, eng.Name())
			}
		}
		want[key] = ref
	}
	for _, stealing := range []bool{true, false} {
		t.Run(fmt.Sprintf("stealing=%v", stealing), func(t *testing.T) {
			r := New(Options{Shards: 4, WorkStealing: Bool(stealing)})
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
				t.Fatalf("stealing disabled but %d elections were stolen", total.Stolen)
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
	direct, err := d.Elect(nil, radio.Options{})
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
	direct, err := d.Elect(nil, radio.Options{})
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

// BenchmarkStealHotKey measures serving one hot key from parallel clients
// with stealing on and off. On a multi-core host the stealing variant
// spreads the hot shard's queue across idle sibling workers; on a single
// core it must at least not regress (the steal path is the same ElectInto,
// only the executing goroutine changes).
func BenchmarkStealHotKey(b *testing.B) {
	for _, stealing := range []bool{true, false} {
		b.Run(fmt.Sprintf("stealing=%v", stealing), func(b *testing.B) {
			r := New(Options{Shards: 4, WorkStealing: Bool(stealing)})
			defer r.Close()
			if err := r.Register("hot", config.StaggeredClique(16)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
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
}
