package service

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonradio/internal/config"
)

// keyState is what a reboot must reproduce of one key: whether it is
// registered, and the leader and round count of its election.
type keyState struct {
	present        bool
	leader, rounds int
}

// keyStates elects every key once and records its state.
func keyStates(t *testing.T, r *Registry, keys []string) map[string]keyState {
	t.Helper()
	states := make(map[string]keyState, len(keys))
	for _, key := range keys {
		out, err := r.Elect(key)
		switch {
		case errors.Is(err, ErrUnknownKey):
			states[key] = keyState{}
		case err != nil:
			t.Fatalf("elect %s: %v", key, err)
		default:
			states[key] = keyState{present: true, leader: out.Leader, rounds: out.Rounds}
		}
	}
	return states
}

// openJournaled opens a durable registry in dir with checkpoints off, so
// the journal alone holds every acknowledged mutation.
func openJournaled(t *testing.T, dir string, builders int) *Registry {
	t.Helper()
	r, _, err := Open(Options{Shards: 2, Builders: builders, WAL: WALOptions{Dir: dir, CheckpointRecords: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// checkRebootMatches opens a copy of the journal in dir, as a reboot after
// a crash would, and requires it to serve every key as r does.
func checkRebootMatches(t *testing.T, r *Registry, dir string, keys []string) {
	t.Helper()
	live := keyStates(t, r, keys)
	copied := t.TempDir()
	if err := os.CopyFS(copied, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	rebooted := openJournaled(t, copied, 1)
	for key, got := range keyStates(t, rebooted, keys) {
		if got != live[key] {
			t.Errorf("key %s: live registry %+v, after Open on its journal %+v", key, live[key], got)
		}
	}
}

// pauseFirstJournal makes the first mutation of key wait between the
// mutation and its journal write: paused is closed when it gets there, and
// resume lets it go on. Later mutations pass straight through.
func pauseFirstJournal(r *Registry, key string) (paused <-chan struct{}, resume func()) {
	arrived, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	r.beforeJournal = func(k string) {
		if k == key && first.CompareAndSwap(false, true) {
			close(arrived)
			<-release
		}
	}
	return arrived, sync.OnceFunc(func() { close(release) })
}

// waitQuiescent waits until no admission is pending and fails the test if
// any admission failed.
func waitQuiescent(t *testing.T, r *Registry) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); r.AdmissionStats().Pending != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("admissions never drained")
		}
	}
	if st := r.AdmissionStats(); st.Failed != 0 {
		t.Fatalf("%d admissions failed", st.Failed)
	}
}

// TestJournalOrderAdmitAdmit pins that two admissions of one key are
// journaled in the order they were installed. An asynchronous admission of
// k (a 5-clique) pauses between its install and its journal write, and a
// synchronous admission of k (a 7-clique) on the other builder starts
// inside the pause. Both are acknowledged; a reboot from a copy of the
// journal must then serve k as the live registry does. Journaling after
// the shard's mutex is released lets the second record land first, and the
// reboot serves the 5-clique the live registry replaced.
func TestJournalOrderAdmitAdmit(t *testing.T) {
	dir := t.TempDir()
	r := openJournaled(t, dir, 2)
	paused, resume := pauseFirstJournal(r, "k")
	defer resume()
	if err := r.RegisterAsync("k", config.StaggeredClique(5)); err != nil {
		t.Fatal(err)
	}
	<-paused
	var second error
	done := make(chan struct{})
	go func() {
		defer close(done)
		second = r.Register("k", config.StaggeredClique(7))
	}()
	waitDoneOrBlocked(t, done, "(*Registry).install")
	resume()
	<-done
	if second != nil {
		t.Fatalf("second admission: %v", second)
	}
	waitQuiescent(t, r)
	checkRebootMatches(t, r, dir, []string{"k"})
}

// TestJournalOrderAdmitEvict pins the same order for an admission and an
// eviction of one key: an Evict that starts while the admission waits
// between its install and its journal write is journaled after it. Journaled
// the other way round, the acknowledged eviction is undone by a reboot.
func TestJournalOrderAdmitEvict(t *testing.T) {
	dir := t.TempDir()
	r := openJournaled(t, dir, 2)
	paused, resume := pauseFirstJournal(r, "k")
	defer resume()
	if err := r.RegisterAsync("k", config.StaggeredClique(5)); err != nil {
		t.Fatal(err)
	}
	<-paused
	var (
		present bool
		err     error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		present, err = r.Evict("k")
	}()
	waitDoneOrBlocked(t, done, "(*Registry).evict")
	resume()
	<-done
	if !present || err != nil {
		t.Fatalf("evict: %v, %v; want the installed key evicted", present, err)
	}
	waitQuiescent(t, r)
	checkRebootMatches(t, r, dir, []string{"k"})
}

// TestPropertyJournalOrder runs concurrent admissions and evictions of a
// few keys, with random pauses between every mutation and its journal
// write, and requires a reboot from a copy of the quiescent registry's
// journal to serve every key as the live registry does: present or
// absent, and with the same leader and rounds.
func TestPropertyJournalOrder(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 1
	}
	keys := []string{"k0", "k1", "k2"}
	cfgs := []*config.Config{config.StaggeredClique(5), config.StaggeredClique(6), config.StaggeredClique(7), config.StaggeredPath(6, 1)}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			r := openJournaled(t, dir, 3)
			var mu sync.Mutex
			pauses := rand.New(rand.NewSource(seed))
			r.beforeJournal = func(string) {
				mu.Lock()
				d := time.Duration(pauses.Intn(400)) * time.Microsecond
				mu.Unlock()
				time.Sleep(d)
			}
			const clients, ops = 4, 25
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(rng *rand.Rand) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						key, cfg := keys[rng.Intn(len(keys))], cfgs[rng.Intn(len(cfgs))]
						var err error
						switch rng.Intn(3) {
						case 0:
							err = r.Register(key, cfg)
						case 1:
							if err = r.RegisterAsync(key, cfg); errors.Is(err, ErrAdmissionBusy) {
								err = nil
							}
						default:
							_, err = r.Evict(key)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(rand.New(rand.NewSource(seed*100 + int64(c))))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			waitQuiescent(t, r)
			checkRebootMatches(t, r, dir, keys)
		})
	}
}
