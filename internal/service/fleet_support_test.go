package service

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/radio"
	"anonradio/internal/wire"
)

// TestExportArtifactRoundTrip pins the fleet migration unit: ExportArtifact
// serves one WAL-admit frame, with no phase table and no digest, that
// RegisterCompiled admits on another registry — one artifact load and no
// build on the receiver, identical election outcomes on both sides.
func TestExportArtifactRoundTrip(t *testing.T) {
	src := New(Options{Shards: 2})
	defer src.Close()
	cfg := config.StaggeredClique(8)
	if err := src.Register("ship-me", cfg); err != nil {
		t.Fatalf("register: %v", err)
	}
	frame, err := src.ExportArtifact("ship-me")
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	typ, payload, rest, err := wire.DecodeFrame(frame)
	if err != nil || typ != wire.FrameWALAdmit || len(rest) != 0 {
		t.Fatalf("export frame: typ=%v rest=%d err=%v", typ, len(rest), err)
	}
	var rec wire.WALAdmit
	if err := rec.DecodeFrom(payload); err != nil {
		t.Fatalf("decoding admit record: %v", err)
	}
	if rec.Key != "ship-me" || rec.Artifact == nil {
		t.Fatalf("admit record incomplete: key=%q artifact=%v", rec.Key, rec.Artifact != nil)
	}
	if rec.Artifact.PhaseTable != nil || rec.Artifact.ArtifactDigest != "" {
		t.Fatalf("the exported artifact carries a phase table or the digest %q", rec.Artifact.ArtifactDigest)
	}

	dst := New(Options{Shards: 2})
	defer dst.Close()
	dstCfg, err := config.Unmarshal(rec.Config)
	if err != nil {
		t.Fatalf("config round-trip: %v", err)
	}
	if err := dst.RegisterCompiled(rec.Key, rec.Artifact, dstCfg); err != nil {
		t.Fatalf("register shipped: %v", err)
	}
	if got := dst.AdmissionStats().ArtifactLoads; got != 1 {
		t.Fatalf("ArtifactLoads = %d after one shipped admission, want 1", got)
	}
	if stats, err := dst.Stats(); err != nil || Totals(stats).Builds != 1 {
		t.Fatalf("receiver stats %+v, %v; want the one install", stats, err)
	}
	want, err := src.Elect("ship-me")
	if err != nil {
		t.Fatalf("source elect: %v", err)
	}
	got, err := dst.Elect("ship-me")
	if err != nil {
		t.Fatalf("dest elect: %v", err)
	}
	if got.Leader != want.Leader || got.Rounds != want.Rounds {
		t.Fatalf("shipped outcome (%d, %d) != source outcome (%d, %d)",
			got.Leader, got.Rounds, want.Leader, want.Rounds)
	}

	if _, err := src.ExportArtifact("nope"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("export of unknown key: err = %v, want ErrUnknownKey", err)
	}
}

// TestRetiredPoolBuckets pins the size-bucketed retired pool: evicting a key
// and admitting a same-size-class configuration reuses the retired
// algorithm's buffers (a rebuild hit), while a different size class takes a
// fresh build — the single-slot pool this replaces could only ever serve
// the most recent eviction regardless of shape.
func TestRetiredPoolBuckets(t *testing.T) {
	r := New(Options{Shards: 1, Builders: 1})
	defer r.Close()

	// Evict a key, then admit a fresh key in the same size class and check
	// whether the build reused the retiree. Under the race detector
	// sync.Pool deliberately drops a fraction of Puts, so a single
	// evict → re-admit cycle is not deterministic there; each probe retries
	// until the hit lands (the miss probability decays geometrically). The
	// admitted size differs from the evicted one, so a hit proves
	// class-level matching, not exact-size matching.
	hitSameClass := func(seedKey, newKey string, admitN int) string {
		key := seedKey
		for attempt := 0; attempt < 64; attempt++ {
			if ok, err := r.Evict(key); !ok || err != nil {
				t.Fatalf("evict %s failed", key)
			}
			base := r.AdmissionStats().RebuildHits
			key = fmt.Sprintf("%s-%d", newKey, attempt)
			if err := r.Register(key, config.StaggeredClique(admitN)); err != nil {
				t.Fatalf("register %s: %v", key, err)
			}
			if r.AdmissionStats().RebuildHits == base+1 {
				return key
			}
		}
		t.Fatalf("admission of %s never reused a same-class retiree", newKey)
		return ""
	}

	if err := r.Register("a", config.StaggeredClique(8)); err != nil {
		t.Fatalf("register a: %v", err)
	}
	// Same size class as the retired clique-8 (bits.Len(8) == bits.Len(9)):
	// the admission must rebuild in place.
	hitSameClass("a", "a2", 9)
	// A different size class is served by its own bucket, untouched by the
	// n=9 traffic above — the single-slot pool this replaces could only
	// ever serve the most recent eviction regardless of shape.
	if err := r.Register("b", config.StaggeredClique(30)); err != nil {
		t.Fatalf("register b: %v", err)
	}
	rebuilt := hitSameClass("b", "b2", 28)
	out, err := r.Elect(rebuilt)
	if err != nil || out.Err != nil {
		t.Fatalf("elect on rebuilt entry: %v / %v", err, out.Err)
	}
}

func bucketOf(n int) int { return retiredBucket(n) }

// TestRetiredBucketClasses sanity-checks the bucket function: monotone,
// clamped, and separating the sizes the test above relies on.
func TestRetiredBucketClasses(t *testing.T) {
	if bucketOf(8) == bucketOf(30) {
		t.Fatalf("sizes 8 and 30 share bucket %d", bucketOf(8))
	}
	if bucketOf(8) != bucketOf(9) {
		t.Fatalf("sizes 8 and 9 split buckets %d / %d", bucketOf(8), bucketOf(9))
	}
	last := -1
	for n := 1; n < 1<<20; n *= 2 {
		b := bucketOf(n)
		if b < last {
			t.Fatalf("bucket not monotone at n=%d: %d < %d", n, b, last)
		}
		if b >= retiredBuckets {
			t.Fatalf("bucket %d out of range at n=%d", b, n)
		}
		last = b
	}
}

// TestFaultKeyStats pins the per-key fault counters: under a fault plan
// every served election accumulates its injected drops/noise/outage-rounds
// onto its key, deterministically (same seed → same counters), and a
// clean-medium registry reports no rows at all.
func TestFaultKeyStats(t *testing.T) {
	plan := &radio.FaultPlan{Seed: 7, Drop: 0.2, Noise: 0.05}
	run := func() []KeyFaultStats {
		r := New(Options{Shards: 2, Fault: plan})
		defer r.Close()
		for key, cfg := range map[string]*config.Config{
			"fk-a": config.StaggeredClique(8),
			"fk-b": config.StaggeredPath(7, 2),
		} {
			if err := r.Register(key, cfg); err != nil {
				t.Fatalf("register %s: %v", key, err)
			}
		}
		for i := 0; i < 3; i++ {
			for _, key := range []string{"fk-a", "fk-b"} {
				// A faulted election may legitimately fail (that is the
				// point of the plan); the fault counters accumulate either
				// way, deterministically.
				_, _ = r.Elect(key)
			}
		}
		stats, err := r.FaultKeyStats()
		if err != nil {
			t.Fatalf("fault stats: %v", err)
		}
		return stats
	}
	first := run()
	if len(first) != 2 {
		t.Fatalf("got %d fault rows, want 2", len(first))
	}
	totalFaults := int64(0)
	for _, fk := range first {
		if fk.Elections < 1 || fk.Elections > 3 {
			t.Fatalf("%s: Elections = %d, want 1..3", fk.Key, fk.Elections)
		}
		totalFaults += fk.Drops + fk.Noise + fk.OutageRounds
	}
	if totalFaults == 0 {
		t.Fatal("20% drop + 5% noise over six elections injected nothing — counting is broken")
	}
	if second := run(); len(second) != len(first) {
		t.Fatalf("determinism: %d rows vs %d", len(second), len(first))
	} else {
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("determinism: row %d differs: %+v vs %+v", i, first[i], second[i])
			}
		}
	}

	clean := New(Options{Shards: 1})
	defer clean.Close()
	if err := clean.Register("c", config.StaggeredClique(4)); err != nil {
		t.Fatalf("register: %v", err)
	}
	if stats, err := clean.FaultKeyStats(); err != nil || stats != nil {
		t.Fatalf("clean registry fault stats = %v, %v; want nil, nil", stats, err)
	}
}

// TestCheckpointDue pins the pacing rule: explicit positive thresholds are
// taken literally, negative disables, and zero tracks the registry size
// with the [64, 8192] clamp.
func TestCheckpointDue(t *testing.T) {
	r := New(Options{Shards: 1})
	defer r.Close()
	r.walOpts.CheckpointRecords = 10
	if r.checkpointDue(9) || !r.checkpointDue(10) {
		t.Fatal("explicit threshold not honored")
	}
	r.walOpts.CheckpointRecords = -1
	if r.checkpointDue(1 << 30) {
		t.Fatal("negative threshold should disable the count trigger")
	}
	r.walOpts.CheckpointRecords = 0
	if r.checkpointDue(63) || !r.checkpointDue(64) {
		t.Fatal("auto pacing floor should be 64 on an empty registry")
	}
	r.configCount.Store(100) // auto threshold 400
	if r.checkpointDue(399) || !r.checkpointDue(400) {
		t.Fatal("auto pacing should track 4x the registered configurations")
	}
	r.configCount.Store(1 << 20)
	if r.checkpointDue(8191) || !r.checkpointDue(8192) {
		t.Fatal("auto pacing ceiling should be 8192")
	}
	r.configCount.Store(0)
}

// TestAutoCheckpointPacing boots a durable registry with no explicit
// checkpoint knobs at all and churns it: the automatic pacing keys off
// journal growth *relative to the registry size* (4x the registered
// configurations, floored at 64), so a pure load never checkpoints — its
// replay cost is the restore cost anyway — while churn, whose records
// outgrow the state they describe, does.
func TestAutoCheckpointPacing(t *testing.T) {
	dir := t.TempDir()
	r, _ := openTestRegistry(t, dir, WALOptions{}) // no timer, no record count: auto
	for i := 0; i < 16; i++ {
		if err := r.Register(keyN("auto", i), config.StaggeredClique(4)); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	// 16 configurations → auto threshold 64 records; each churn cycle
	// journals an evict + an admit, so ~24 cycles cross it. Run 60 for
	// margin.
	for i := 0; i < 60; i++ {
		if ok, err := r.Evict(keyN("auto", 0)); !ok || err != nil {
			t.Fatalf("evict cycle %d failed", i)
		}
		if err := r.Register(keyN("auto", 0), config.StaggeredClique(4)); err != nil {
			t.Fatalf("re-register cycle %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.WALStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			st := r.WALStats()
			t.Fatalf("no automatic checkpoint after churn (records since checkpoint: %d)", st.RecordsSinceCheckpoint)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func keyN(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
