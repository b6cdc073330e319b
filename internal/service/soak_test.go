package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/radio"
	"anonradio/internal/wal"
)

func TestStartChurnValidation(t *testing.T) {
	r := New(Options{Shards: 2})
	t.Cleanup(r.Close)
	cfg := config.StaggeredClique(6)
	cases := []struct {
		name    string
		reg     *Registry
		entries []ChurnEntry
	}{
		{"nil registry", nil, []ChurnEntry{{Key: "k", Cfg: cfg}}},
		{"no entries", r, nil},
		{"empty key", r, []ChurnEntry{{Key: "", Cfg: cfg}}},
		{"nil config", r, []ChurnEntry{{Key: "k", Cfg: nil}}},
	}
	for _, tc := range cases {
		if _, err := StartChurn(tc.reg, tc.entries, ChurnOptions{}); err == nil {
			t.Errorf("%s: StartChurn should fail", tc.name)
		}
	}
}

// TestChurnSoakNoLostAdmissions is the basic soak contract: a soak stopped
// against a live registry leaves every churned key admitted and correctly
// serving — evictions are always repaired, admission backpressure is
// retried rather than dropped.
func TestChurnSoakNoLostAdmissions(t *testing.T) {
	r := New(Options{Shards: 2})
	t.Cleanup(r.Close)
	entries := []ChurnEntry{
		{Key: "a", Cfg: config.StaggeredClique(8)},
		{Key: "b", Cfg: config.StaggeredPath(7, 2)},
	}
	for _, e := range entries {
		if err := r.Register(e.Key, e.Cfg); err != nil {
			t.Fatal(err)
		}
	}
	before := r.Len()

	s, err := StartChurn(r, entries, ChurnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Cycles < 20; {
		if time.Now().After(deadline) {
			t.Fatalf("soak made no progress: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent

	stats := s.Stats()
	if stats.Running {
		t.Fatalf("stopped soak still running: %+v", stats)
	}
	if stats.Failures != 0 {
		t.Fatalf("churn failures on a live registry: %+v", stats)
	}
	if stats.Evictions == 0 || stats.Readmissions == 0 {
		t.Fatalf("soak churned nothing: %+v", stats)
	}
	if r.Len() != before {
		t.Fatalf("lost admissions: %d keys, want %d", r.Len(), before)
	}
	for _, e := range entries {
		out, err := r.Elect(e.Key)
		if err != nil || !out.Elected() {
			t.Fatalf("post-soak elect %s: %+v, %v", e.Key, out, err)
		}
	}
	if got := s.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("keys %v", got)
	}
}

// TestChurnSoakRaceStress is the -race satellite: a durable registry with
// aggressive background checkpointing, work-stealing elections hammering
// both stable and churned keys, and the churn soak cycling keys through the
// retired pool and the rebuild-in-place admission path — all at once. Every
// served election must be the correct outcome or a clean unknown-key
// failure, the soak must finish with every admission intact, and the
// background checkpointer must have run against the churn.
func TestChurnSoakRaceStress(t *testing.T) {
	dir := t.TempDir()
	r, _ := openTestRegistry(t, dir, WALOptions{Sync: wal.SyncBatch, CheckpointRecords: 16})

	stable := map[string]*config.Config{
		"stable-0": config.StaggeredClique(10),
		"stable-1": config.StaggeredPath(9, 2),
	}
	churned := []ChurnEntry{
		{Key: "churn-0", Cfg: config.StaggeredClique(12)},
		{Key: "churn-1", Cfg: config.EarlyCenterStar(8, 3)},
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
		if err := r.Register(e.Key, e.Cfg); err != nil {
			t.Fatal(err)
		}
		want[e.Key] = directOutcome(t, e.Cfg)
		keys = append(keys, e.Key)
	}

	s, err := StartChurn(r, churned, ChurnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Elections race the churn: churned keys may be mid-cycle, so unknown-key
	// failures are legal; wrong outcomes never are. The churn runs for as
	// long as the elections do, so keep electing until the soak has
	// journaled past the checkpoint threshold and the checkpointer ran: the
	// faster the elections, the fewer cycles one pass leaves the soak.
	for deadline := time.Now().Add(10 * time.Second); ; {
		hammerElect(t, r, keys, want, 8, 30, true)
		if t.Failed() || r.WALStats().Checkpoints > 0 || time.Now().After(deadline) {
			break
		}
	}
	s.Stop()
	if t.Failed() {
		return
	}

	stats := s.Stats()
	if stats.Failures != 0 {
		t.Fatalf("churn failures: %+v", stats)
	}
	if r.Len() != len(stable)+len(churned) {
		t.Fatalf("lost admissions: %d keys, want %d", r.Len(), len(stable)+len(churned))
	}
	for _, key := range keys {
		out, err := r.Elect(key)
		if err != nil || out.Leader != want[key][0] || out.Rounds != want[key][1] {
			t.Fatalf("post-soak elect %s: %+v, %v (want %v)", key, out, err, want[key])
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

// directOutcome computes the reference (leader, rounds) for cfg on the
// direct Dedicated path.
func directOutcome(t *testing.T, cfg *config.Config) [2]int {
	t.Helper()
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := d.Elect(nil, radio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return [2]int{direct.Leader(), direct.Rounds}
}

// TestChurnSoakClosedMidSoak pins the shutdown contract: closing the
// registry while the soak is running stops the loop on its own (no Stop
// required), the soak reports not-running, and every later registry
// operation fails with deterministic ErrClosed.
func TestChurnSoakClosedMidSoak(t *testing.T) {
	r := New(Options{Shards: 2})
	entries := []ChurnEntry{{Key: "k", Cfg: config.StaggeredClique(8)}}
	if err := r.Register("k", entries[0].Cfg); err != nil {
		t.Fatal(err)
	}
	s, err := StartChurn(r, entries, ChurnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Cycles < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("soak made no progress: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// Close races the soak loop mid-cycle; the loop must observe ErrClosed
	// (or the closed flag) and exit by itself.
	var closers sync.WaitGroup
	closers.Add(1)
	go func() {
		defer closers.Done()
		r.Close()
	}()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("soak loop did not exit after registry close")
	}
	closers.Wait()
	if s.Stats().Running {
		t.Fatal("soak reports running after registry close")
	}
	s.Stop() // still safe after self-termination

	if _, err := r.Elect("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("elect after close: %v, want ErrClosed", err)
	}
	if err := r.Register("k2", config.StaggeredClique(4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
}

// TestServiceFaultModeMatchesDirect pins the served fault mode: a registry
// built with Options.Fault serves every election bit-identically to the
// direct Dedicated.ElectInto path under the same plan — same leader and
// rounds on success, a verification failure (counted in Stats) when the
// faults break the election — and repeated served elections are
// deterministic.
func TestServiceFaultModeMatchesDirect(t *testing.T) {
	plans := []*radio.FaultPlan{
		nil,
		{Seed: 7},                         // empty plan == clean medium
		{Seed: 7, Drop: 0.2, Noise: 0.05}, // lossy
		{Seed: 7, Drop: 1},                // total loss
		{Seed: 7, Outages: []radio.Outage{{Node: 0, From: 0, To: 50}}}, // node 0 dark
	}
	for pi, plan := range plans {
		t.Run(fmt.Sprintf("plan-%d", pi), func(t *testing.T) {
			r := New(Options{Shards: 2, Fault: plan})
			t.Cleanup(r.Close)
			wantFails := int64(0)
			for key, cfg := range testConfigs() {
				if err := r.Register(key, cfg); err != nil {
					t.Fatal(err)
				}
				d, err := election.BuildDedicated(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var ref radio.ElectionOutcome
				refErr := d.ElectInto(&ref, radio.Options{Fault: plan})
				if refErr == nil {
					refErr = d.Verify(&ref)
				}
				for trial := 0; trial < 3; trial++ { // faults are deterministic per key
					out, err := r.Elect(key)
					if (refErr == nil) != (err == nil) {
						t.Fatalf("%s trial %d: served err %v, direct err %v", key, trial, err, refErr)
					}
					if refErr == nil && (out.Leader != ref.Leader() || out.Rounds != ref.Rounds) {
						t.Fatalf("%s trial %d: served (%d, %d), direct (%d, %d)",
							key, trial, out.Leader, out.Rounds, ref.Leader(), ref.Rounds)
					}
				}
				if refErr != nil {
					wantFails += 3
				}
			}
			stats, err := r.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if total := Totals(stats); total.Failures != wantFails {
				t.Fatalf("failures %d, want %d", total.Failures, wantFails)
			}
			if plan.Empty() {
				return
			}
			// A live plan must actually break something somewhere: across
			// the whole config set, at least one election fails under total
			// loss (plans 3 and 4 silence entire neighbourhoods).
			if pi >= 3 && wantFails == 0 {
				t.Fatal("total-loss plan broke no election")
			}
		})
	}
}
