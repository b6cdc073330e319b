package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/radio"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// churnEntry is one churned key and the configuration it is re-registered
// with after each eviction.
type churnEntry struct {
	key string
	cfg *config.Config
}

// churn cycles its entries evict → re-register on a registry, round robin,
// from one goroutine, until halt is called or the registry closes. Each
// re-registration goes through the normal admission pipeline, so it retires
// the evicted algorithm and rebuilds the key in place on recycled buffers.
// A registration refused with ErrAdmissionBusy is retried until it lands,
// never dropped, so a halted churn against a live registry leaves every key
// admitted.
type churn struct {
	stop, done   chan struct{}
	cycles       atomic.Int64
	evictions    atomic.Int64
	readmissions atomic.Int64
	failures     atomic.Int64 // registrations that failed with anything but ErrClosed
}

func startChurn(r *Registry, entries []churnEntry) *churn {
	c := &churn{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for i := 0; ; i = (i + 1) % len(entries) {
			select {
			case <-c.stop:
				return
			default:
			}
			e := entries[i]
			if ok, _ := r.Evict(e.key); ok {
				c.evictions.Add(1)
			}
			err := r.Register(e.key, e.cfg)
			for errors.Is(err, ErrAdmissionBusy) {
				time.Sleep(100 * time.Microsecond)
				err = r.Register(e.key, e.cfg)
			}
			switch {
			case errors.Is(err, ErrClosed):
				return
			case err != nil:
				c.failures.Add(1)
			default:
				c.readmissions.Add(1)
			}
			c.cycles.Add(1)
		}
	}()
	return c
}

// halt stops the churn and waits for its current cycle, eviction and
// re-registration both, to finish. It must be called once.
func (c *churn) halt() {
	close(c.stop)
	<-c.done
}

// awaitCycles waits until the churn has completed n cycles.
func (c *churn) awaitCycles(t *testing.T, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.cycles.Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("churn made no progress: %d cycles", c.cycles.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChurnSoakNoLostAdmissions is the basic churn contract: a churn halted
// against a live registry leaves every churned key admitted and correctly
// serving — evictions are always repaired, admission backpressure is
// retried rather than dropped.
func TestChurnSoakNoLostAdmissions(t *testing.T) {
	r := New(Options{Shards: 2})
	t.Cleanup(r.Close)
	entries := []churnEntry{
		{"a", config.StaggeredClique(8)},
		{"b", config.StaggeredPath(7, 2)},
	}
	for _, e := range entries {
		if err := r.Register(e.key, e.cfg); err != nil {
			t.Fatal(err)
		}
	}
	before := r.Len()

	c := startChurn(r, entries)
	c.awaitCycles(t, 20)
	c.halt()

	if n := c.failures.Load(); n != 0 {
		t.Fatalf("%d churn failures on a live registry", n)
	}
	if c.evictions.Load() == 0 || c.readmissions.Load() == 0 {
		t.Fatalf("churn churned nothing: %d evictions, %d re-admissions", c.evictions.Load(), c.readmissions.Load())
	}
	// Only the churn touches these keys, so every cycle's eviction must
	// find the key that the previous acknowledged registration installed.
	if ev, cy := c.evictions.Load(), c.cycles.Load(); ev != cy {
		t.Fatalf("lost admissions: %d of %d cycles found their key to evict", ev, cy)
	}
	if r.Len() != before {
		t.Fatalf("lost admissions: %d keys, want %d", r.Len(), before)
	}
	for _, e := range entries {
		out, err := r.Elect(e.key)
		if err != nil || !out.Elected() {
			t.Fatalf("post-churn elect %s: %+v, %v", e.key, out, err)
		}
	}
}

// TestChurnSoakRaceStress is the -race satellite: a durable registry with
// aggressive background checkpointing, elections on every worker hammering
// both stable and churned keys, and a churn cycling keys through the
// retired pool and the rebuild-in-place admission path — all at once, with
// artifact exports racing the churn.
// Every served election must be the correct outcome or a clean unknown-key
// failure, every exported frame must decode and load with its
// configuration, the churn must finish with every admission intact, and the
// background checkpointer must have run against the churn.
func TestChurnSoakRaceStress(t *testing.T) {
	dir := t.TempDir()
	r, _ := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncBatch, CheckpointRecords: 16})

	stable := map[string]*config.Config{
		"stable-0": config.StaggeredClique(10),
		"stable-1": config.StaggeredPath(9, 2),
	}
	churned := []churnEntry{
		{"churn-0", config.StaggeredClique(12)},
		{"churn-1", config.EarlyCenterStar(8, 3)},
	}
	want := make(map[string][2]int)
	for key, cfg := range stable {
		if err := r.Register(key, cfg); err != nil {
			t.Fatal(err)
		}
		want[key] = directOutcome(t, cfg)
	}
	keys := []string{"stable-0", "stable-1"}
	for _, e := range churned {
		if err := r.Register(e.key, e.cfg); err != nil {
			t.Fatal(err)
		}
		want[e.key] = directOutcome(t, e.cfg)
		keys = append(keys, e.key)
	}

	c := startChurn(r, churned)
	// Exports race the churn too: each frame is encoded under its entry's
	// read lock, so no rebuild in place may recycle the memory it reads.
	var exports atomic.Int64
	stopExports := make(chan struct{})
	exported := make(chan struct{})
	go func() {
		defer close(exported)
		for i := 0; ; i++ {
			select {
			case <-stopExports:
				return
			default:
			}
			key := keys[i%len(keys)]
			frame, err := r.ExportArtifact(key)
			if errors.Is(err, ErrUnknownKey) {
				continue
			}
			if err == nil {
				err = loadExport(key, frame, want[key][0])
			}
			if err != nil {
				t.Errorf("export of %s: %v", key, err)
				return
			}
			exports.Add(1)
		}
	}()
	// Elections race the churn: churned keys may be mid-cycle, so unknown-key
	// failures are legal; wrong outcomes never are. The churn runs for as
	// long as the elections do, so keep electing until the churn has
	// journaled past the checkpoint threshold and the checkpointer ran: the
	// faster the elections, the fewer cycles one pass leaves the churn.
	for deadline := time.Now().Add(10 * time.Second); ; {
		hammerElect(t, r, keys, want, 8, 30, true)
		if t.Failed() || r.WALStats().Checkpoints > 0 || time.Now().After(deadline) {
			break
		}
	}
	close(stopExports)
	<-exported
	c.halt()
	if t.Failed() {
		return
	}

	if n := c.failures.Load(); n != 0 {
		t.Fatalf("%d churn failures", n)
	}
	if exports.Load() == 0 {
		t.Fatal("no export completed beside the churn")
	}
	if r.Len() != len(stable)+len(churned) {
		t.Fatalf("lost admissions: %d keys, want %d", r.Len(), len(stable)+len(churned))
	}
	for _, key := range keys {
		out, err := r.Elect(key)
		if err != nil || out.Leader != want[key][0] || out.Rounds != want[key][1] {
			t.Fatalf("post-churn elect %s: %+v, %v (want %v)", key, out, err, want[key])
		}
	}
	// Close waits for any in-flight background checkpoint, so the counter
	// is final here.
	r.Close()
	if ws := r.WALStats(); ws.Checkpoints == 0 {
		t.Fatalf("background checkpointer never ran against the churn: %+v", ws)
	}

	// The churned registry recovers bit-identically: re-open from the WAL
	// and compare every outcome.
	r2, report := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncBatch})
	if !report.Clean() {
		t.Fatalf("recovery damage: %+v", report)
	}
	for _, key := range keys {
		out, err := r2.Elect(key)
		if err != nil || out.Leader != want[key][0] || out.Rounds != want[key][1] {
			t.Fatalf("recovered elect %s: %+v, %v (want %v)", key, out, err, want[key])
		}
	}
}

// loadExport decodes an exported admit frame of key and loads its artifact
// with its configuration, which must designate leader.
func loadExport(key string, frame []byte, leader int) error {
	typ, body, rest, err := wire.DecodeFrame(frame)
	if err != nil || typ != wire.FrameWALAdmit || len(rest) != 0 {
		return fmt.Errorf("frame %v, %d trailing bytes: %v", typ, len(rest), err)
	}
	var rec wire.WALAdmit
	if err := rec.DecodeFrom(body); err != nil {
		return err
	}
	cfg, err := config.Unmarshal(rec.Config)
	if err != nil {
		return err
	}
	d, err := election.Load(rec.Artifact, cfg)
	if err != nil {
		return err
	}
	if rec.Key != key || d.ExpectedLeader != leader {
		return fmt.Errorf("frame of %q designates leader %d, want %q and %d", rec.Key, d.ExpectedLeader, key, leader)
	}
	return nil
}

// directOutcome computes the reference (leader, rounds) for cfg on the
// direct Dedicated path.
func directOutcome(t *testing.T, cfg *config.Config) [2]int {
	t.Helper()
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := d.Elect(radio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return [2]int{direct.Leader(), direct.Rounds}
}

// TestChurnSoakClosedMidSoak pins the shutdown contract: closing the
// registry while the churn is running ends the churn on its own (no halt
// required) — its next registration fails with ErrClosed — and every later
// registry operation fails with deterministic ErrClosed.
func TestChurnSoakClosedMidSoak(t *testing.T) {
	r := New(Options{Shards: 2})
	entries := []churnEntry{{"k", config.StaggeredClique(8)}}
	if err := r.Register("k", entries[0].cfg); err != nil {
		t.Fatal(err)
	}
	c := startChurn(r, entries)
	c.awaitCycles(t, 5)

	// Close races the churn mid-cycle; the churn must observe ErrClosed and
	// exit by itself.
	var closers sync.WaitGroup
	closers.Add(1)
	go func() {
		defer closers.Done()
		r.Close()
	}()
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		t.Fatal("churn did not exit after registry close")
	}
	closers.Wait()
	c.halt() // still safe after the churn ended by itself

	if _, err := r.Elect("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("elect after close: %v, want ErrClosed", err)
	}
	if err := r.Register("k2", config.StaggeredClique(4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
}
