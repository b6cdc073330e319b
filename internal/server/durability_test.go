package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/service"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// TestRetryAfterDerivedFromBacklog pins the backpressure satellite: the 429
// Retry-After header reflects the actual admission backlog (pending divided
// by builder count, clamped to [1, 60]) instead of a constant "1".
func TestRetryAfterDerivedFromBacklog(t *testing.T) {
	const queued = 4
	ts, release := newGatedServer(t,
		service.Options{Shards: 1, Builders: 1, AdmissionQueue: queued},
		func(string) bool { return true })
	defer release()
	cfg := config.StaggeredClique(6).Marshal()

	// Park one admission mid-build, then fill the queue behind it.
	resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "held", Config: cfg, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("held register: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		sr, err := ts.Client().Get(ts.URL + "/v1/register/status/held")
		if err != nil {
			t.Fatal(err)
		}
		var st AdmissionStatusResponse
		decodeBody(t, sr, &st)
		if st.State == "building" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never started building: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < queued; i++ {
		r := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "q" + strconv.Itoa(i), Config: cfg, Async: true})
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("queue fill %d: status %d, want 202", i, r.StatusCode)
		}
		r.Body.Close()
	}

	// Pending is now 1 building + queued in the queue, one builder:
	// Retry-After must say the whole backlog, not "1".
	busy := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "bounced", Config: cfg})
	defer busy.Body.Close()
	if busy.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull queue: status %d, want 429", busy.StatusCode)
	}
	got, err := strconv.Atoi(busy.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", busy.Header.Get("Retry-After"), err)
	}
	if want := 1 + queued; got != want {
		t.Fatalf("Retry-After = %d, want %d (pending/builders)", got, want)
	}
}

// TestRetryAfterClamped pins the [1, 60] clamp at both ends.
func TestRetryAfterClamped(t *testing.T) {
	reg := service.New(service.Options{Shards: 1})
	defer reg.Close()
	s := New(reg, Options{})
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle pipeline Retry-After = %d, want the 1s floor", got)
	}
	// A huge synthetic backlog must hit the 60s ceiling, not tell clients
	// to come back in an hour. Park the builder first, then fill the whole
	// queue, so the final probe is guaranteed to bounce.
	ts, release := newGatedServer(t,
		service.Options{Shards: 1, Builders: 1, AdmissionQueue: 128},
		func(string) bool { return true })
	defer release()
	cfg := config.StaggeredClique(4).Marshal()
	r := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "held", Config: cfg, Async: true})
	r.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		sr, err := ts.Client().Get(ts.URL + "/v1/register/status/held")
		if err != nil {
			t.Fatal(err)
		}
		var st AdmissionStatusResponse
		decodeBody(t, sr, &st)
		if st.State == "building" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never started building: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 128; i++ {
		r := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "k" + strconv.Itoa(i), Config: cfg, Async: true})
		r.Body.Close()
	}
	busy := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "last", Config: cfg})
	defer busy.Body.Close()
	if busy.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull queue: status %d, want 429", busy.StatusCode)
	}
	if got, _ := strconv.Atoi(busy.Header.Get("Retry-After")); got != 60 {
		t.Fatalf("Retry-After = %d, want the 60s ceiling for a 129-deep backlog", got)
	}
}

// TestStatsAndHealthSurfaceWAL boots a server over a durable registry and
// asserts the journal's counters reach /v1/stats and its lag reaches
// /healthz — and that a non-durable registry reports enabled=false.
func TestStatsAndHealthSurfaceWAL(t *testing.T) {
	reg, _, err := service.Open(service.Options{
		Shards: 2,
		WAL:    service.WALOptions{Dir: t.TempDir(), Sync: wal.SyncAlways},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	srv := New(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	cfg := config.StaggeredClique(6).Marshal()
	if resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "k", Config: cfg}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	sr, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	decodeBody(t, sr, &stats)
	if !stats.WAL.Enabled || stats.WAL.Policy != "always" || stats.WAL.Appends < 1 {
		t.Fatalf("stats WAL block: %+v", stats.WAL)
	}
	if stats.WAL.Segments < 1 || stats.WAL.JournalBytes <= 0 {
		t.Fatalf("stats WAL block missing journal shape: %+v", stats.WAL)
	}

	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	decodeBody(t, hr, &health)
	if !health.WALEnabled {
		t.Fatalf("healthz does not report the journal: %+v", health)
	}
	if health.WALUnsynced != 0 {
		t.Fatalf("healthz reports WAL lag %d under sync=always, want 0", health.WALUnsynced)
	}

	// Non-durable registries answer enabled=false, not zeroes dressed as a
	// healthy journal.
	_, plain := newTestServer(t)
	pr, err := plain.Client().Get(plain.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var plainStats StatsResponse
	decodeBody(t, pr, &plainStats)
	if plainStats.WAL.Enabled {
		t.Fatalf("non-durable registry reports WAL enabled: %+v", plainStats.WAL)
	}
}
