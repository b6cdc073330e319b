package service

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/radio"
)

func testConfigs() map[string]*config.Config {
	return map[string]*config.Config{
		"clique-10": config.StaggeredClique(10),
		"clique-5":  config.StaggeredClique(5),
		"path-7":    config.StaggeredPath(7, 2),
		"line-2":    config.LineFamilyG(2),
		"star-6":    config.EarlyCenterStar(6, 2),
		"single":    config.SingleNode(),
	}
}

func newTestRegistry(t *testing.T, shards int) *Registry {
	t.Helper()
	r := New(Options{Shards: shards})
	t.Cleanup(r.Close)
	for key, cfg := range testConfigs() {
		if err := r.Register(key, cfg); err != nil {
			t.Fatalf("register %s: %v", key, err)
		}
	}
	return r
}

// TestServiceMatchesDirectElect is the correctness acceptance check: every
// served election must produce the same leader and round count as the
// direct Dedicated.Elect path, untraced on the algorithm's convenience
// simulator and traced on a one-shot engine.
func TestServiceMatchesDirectElect(t *testing.T) {
	r := newTestRegistry(t, 3)
	for key, cfg := range testConfigs() {
		out, err := r.Elect(key)
		if err != nil {
			t.Fatalf("elect %s: %v", key, err)
		}
		if !out.Elected() {
			t.Fatalf("elect %s: no leader: %+v", key, out)
		}
		d, err := election.BuildDedicated(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			direct, err := d.Elect(radio.Options{RecordTrace: traced})
			if err != nil {
				t.Fatalf("%s direct: %v", key, err)
			}
			if direct.Leader() != out.Leader || direct.Rounds != out.Rounds {
				t.Fatalf("%s: service (%d, %d rounds) != direct traced=%v (%d, %d rounds)",
					key, out.Leader, out.Rounds, traced, direct.Leader(), direct.Rounds)
			}
		}
	}
}

// TestServiceRegisterCompiled checks the artifact admission path against
// the build path, including an artifact of an earlier release that embeds
// its phase table: it serves identically while the table equals the
// compiled one, and is refused once the table is edited.
func TestServiceRegisterCompiled(t *testing.T) {
	r := New(Options{Shards: 2})
	defer r.Close()
	cfg := config.StaggeredClique(8)
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterCompiled("compiled", d.Compile(), cfg); err != nil {
		t.Fatal(err)
	}
	out, err := r.Elect("compiled")
	if err != nil {
		t.Fatal(err)
	}
	if out.Leader != d.ExpectedLeader {
		t.Fatalf("compiled admission elected %d, want %d", out.Leader, d.ExpectedLeader)
	}
	if err := r.RegisterCompiled("nil", nil, cfg); err == nil {
		t.Fatalf("nil artifact should be rejected")
	}

	legacy := d.Compile()
	legacy.PhaseTable, legacy.ArtifactDigest = d.DRIP.Table(), "54fd9a642a312481"
	if err := r.RegisterCompiled("legacy", legacy, cfg); err != nil {
		t.Fatal(err)
	}
	lout, err := r.Elect("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if lout.Leader != out.Leader || lout.Rounds != out.Rounds {
		t.Fatalf("the artifact with its table diverged: %+v vs %+v", lout, out)
	}
	edited, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	legacy = edited.Compile()
	legacy.PhaseTable = edited.DRIP.Table()
	legacy.PhaseTable.Plans[0].Block = 1
	if err := r.RegisterCompiled("edited", legacy, cfg); !errors.Is(err, election.ErrInvalidArtifact) {
		t.Fatalf("an edited table registered with %v, want ErrInvalidArtifact", err)
	}
	if got := r.AdmissionStats().ArtifactLoads; got != 2 {
		t.Fatalf("ArtifactLoads = %d after two artifact admissions and a refused one, want 2", got)
	}
}

// TestServiceErrors covers unknown keys, infeasible admissions, eviction
// and the closed-registry contract.
func TestServiceErrors(t *testing.T) {
	r := New(Options{Shards: 2})
	if _, err := r.Elect("nope"); err == nil {
		t.Fatalf("unknown key should fail")
	}
	if err := r.Register("bad", config.SymmetricPair()); !errors.Is(err, election.ErrInfeasible) {
		t.Fatalf("infeasible admission: got %v, want ErrInfeasible", err)
	}
	if err := r.Register("nil", nil); err == nil {
		t.Fatalf("nil configuration should be rejected")
	}
	if err := r.Register("ok", config.StaggeredClique(4)); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if ok, err := r.Evict("ok"); !ok || err != nil {
		t.Fatalf("evicting a present key should report true")
	}
	if ok, err := r.Evict("ok"); ok || err != nil {
		t.Fatalf("evicting an absent key should report false")
	}
	stats, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	total := Totals(stats)
	if total.Failures < 2 || total.Builds != 1 {
		t.Fatalf("unexpected totals: %+v", total)
	}
	r.Close()
	r.Close() // idempotent
	if _, err := r.Elect("ok"); !errors.Is(err, ErrClosed) {
		t.Fatalf("elect after close: %v", err)
	}
	if err := r.Register("x", config.StaggeredClique(4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v", err)
	}
	// A batch on a closed registry must mark every slot failed — stale
	// outcomes in a reused slice (or plausible zero values in a fresh one)
	// would read as successful elections.
	stale := []Outcome{{Key: "ok", Leader: 3, Rounds: 9}}
	outs, err := r.ElectBatch([]string{"ok"}, stale)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close: %v", err)
	}
	if len(outs) != 1 || outs[0].Elected() || !errors.Is(outs[0].Err, ErrClosed) || outs[0].Leader != -1 {
		t.Fatalf("closed batch left a success-looking slot: %+v", outs[0])
	}
}

// TestServiceElectBatch checks order preservation, slice reuse and per-key
// error reporting of the batch path.
func TestServiceElectBatch(t *testing.T) {
	r := newTestRegistry(t, 4)
	keys := []string{"clique-10", "path-7", "clique-10", "line-2", "single", "star-6", "clique-5"}
	outs, err := r.ElectBatch(keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(keys) {
		t.Fatalf("got %d outcomes for %d keys", len(outs), len(keys))
	}
	for i, out := range outs {
		if out.Key != keys[i] || out.Index != i {
			t.Fatalf("slot %d: outcome for %q index %d", i, out.Key, out.Index)
		}
		if !out.Elected() {
			t.Fatalf("slot %d (%s): %v", i, out.Key, out.Err)
		}
	}
	// Slice reuse, and a per-key failure that must not fail the others.
	keys[3] = "missing"
	reused, err := r.ElectBatch(keys, outs)
	if err == nil {
		t.Fatalf("batch with an unknown key should surface its error")
	}
	if &reused[0] != &outs[0] {
		t.Fatalf("batch did not reuse the caller's slice")
	}
	for i, out := range reused {
		if i == 3 {
			if out.Err == nil {
				t.Fatalf("slot 3 should have failed")
			}
			continue
		}
		if !out.Elected() {
			t.Fatalf("slot %d (%s) should have succeeded: %v", i, out.Key, out.Err)
		}
	}
	if outs, err := r.ElectBatch(nil, nil); err != nil || len(outs) != 0 {
		t.Fatalf("empty batch: %v %v", outs, err)
	}
}

// TestServiceSteadyStateAllocs is the perf acceptance check: once the
// registry is warm, a served election performs zero heap allocations end to
// end — pooled rendezvous channel, value-typed request/response and the
// zero-alloc ElectInto on the shard.
func TestServiceSteadyStateAllocs(t *testing.T) {
	r := New(Options{Shards: 2})
	defer r.Close()
	if err := r.Register("a", config.StaggeredClique(12)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("b", config.StaggeredPath(9, 1)); err != nil {
		t.Fatal(err)
	}
	i := 0
	keys := [2]string{"a", "b"}
	run := func() {
		i++
		out, err := r.Elect(keys[i%2])
		if err != nil || !out.Elected() {
			t.Fatalf("elect %s: %+v %v", keys[i%2], out, err)
		}
	}
	run() // warm the lazy simulators, outcome buffers and channel pool
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state service election allocates %.1f times, want 0", allocs)
	}
}

// TestServiceConcurrentStress hammers one registry with concurrent
// Register/Elect/ElectBatch/Evict/Stats from many goroutines; it is run
// under -race in CI. Keys are partitioned per client for deterministic
// expectations, plus a shared read-mostly key set exercising cross-client
// contention on the same shards.
func TestServiceConcurrentStress(t *testing.T) {
	r := New(Options{Shards: 4, QueueDepth: 8})
	defer r.Close()
	shared := []string{"shared-0", "shared-1", "shared-2"}
	for i, key := range shared {
		if err := r.Register(key, config.StaggeredClique(6+i)); err != nil {
			t.Fatal(err)
		}
	}
	const clients = 8
	iters := 120
	if testing.Short() {
		iters = 30
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			own := fmt.Sprintf("own-%d", c)
			size := 4 + c%3
			if err := r.Register(own, config.StaggeredClique(size)); err != nil {
				errs <- err
				return
			}
			var outs []Outcome
			for i := 0; i < iters; i++ {
				switch rng.Intn(10) {
				case 0: // churn: evict and re-admit the private key
					r.Evict(own)
					if err := r.Register(own, config.StaggeredClique(size)); err != nil {
						errs <- fmt.Errorf("client %d re-register: %w", c, err)
						return
					}
				case 1: // admission of a fresh key each time
					key := fmt.Sprintf("tmp-%d-%d", c, i)
					if err := r.Register(key, config.StaggeredPath(5, 1)); err != nil {
						errs <- err
						return
					}
					if _, err := r.Elect(key); err != nil {
						errs <- err
						return
					}
					r.Evict(key)
				case 2: // batch over shared + private keys
					keys := append(append([]string{}, shared...), own)
					var err error
					outs, err = r.ElectBatch(keys, outs)
					if err != nil {
						errs <- fmt.Errorf("client %d batch: %w", c, err)
						return
					}
				case 3:
					if _, err := r.Stats(); err != nil {
						errs <- fmt.Errorf("client %d stats: %w", c, err)
						return
					}
				default: // steady-state elections on shared keys
					key := shared[rng.Intn(len(shared))]
					out, err := r.Elect(key)
					if err != nil || !out.Elected() {
						errs <- fmt.Errorf("client %d elect %s: %+v %v", c, key, out, err)
						return
					}
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	stats, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	total := Totals(stats)
	if total.Elections == 0 || total.Builds < clients {
		t.Fatalf("stress run served nothing: %+v", total)
	}
}

// TestServiceShardAffinity checks that a key is always served by the same
// shard and that per-shard counters account for exactly the traffic sent.
func TestServiceShardAffinity(t *testing.T) {
	r := New(Options{Shards: 4})
	defer r.Close()
	if err := r.Register("pinned", config.StaggeredClique(5)); err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := r.Elect("pinned"); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	serving := 0
	for _, s := range stats {
		if s.Elections > 0 {
			serving++
			if s.Elections != n {
				t.Fatalf("owning shard served %d elections, want %d", s.Elections, n)
			}
			if s.Rounds <= 0 {
				t.Fatalf("owning shard accumulated no rounds")
			}
		}
	}
	if serving != 1 {
		t.Fatalf("%d shards served a single key, want exactly 1", serving)
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

func BenchmarkServiceElect(b *testing.B) {
	r := New(Options{Shards: 2})
	defer r.Close()
	if err := r.Register("bench", config.StaggeredClique(64)); err != nil {
		b.Fatal(err)
	}
	if _, err := r.Elect("bench"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Elect("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceElectBatch(b *testing.B) {
	r := New(Options{Shards: 4})
	defer r.Close()
	var keys []string
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("cfg-%d", i)
		if err := r.Register(key, config.StaggeredClique(16+i)); err != nil {
			b.Fatal(err)
		}
		keys = append(keys, key)
	}
	outs, err := r.ElectBatch(keys, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if outs, err = r.ElectBatch(keys, outs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceRegisterChurn(b *testing.B) {
	r := New(Options{Shards: 1})
	defer r.Close()
	cfg := config.StaggeredClique(32)
	if err := r.Register("churn", cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Register("churn", cfg); err != nil {
			b.Fatal(err)
		}
	}
}
