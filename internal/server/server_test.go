package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/service"
	"anonradio/internal/wire"
)

func testConfigs() map[string]*config.Config {
	return map[string]*config.Config{
		"clique-8": config.StaggeredClique(8),
		"path-7":   config.StaggeredPath(7, 2),
		"line-2":   config.LineFamilyG(2),
		"star-6":   config.EarlyCenterStar(6, 2),
	}
}

// newTestServer boots a server over a fresh registry with the test fleet
// admitted over HTTP (exercising the register endpoint on every test).
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg := service.New(service.Options{Shards: 3})
	t.Cleanup(reg.Close)
	srv := New(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for key, cfg := range testConfigs() {
		resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: key, Config: cfg.Marshal()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: status %d", key, resp.StatusCode)
		}
		var reg wire.RegisterResponse
		decodeBody(t, resp, &reg)
		if reg.Key != key || reg.Source != "built" {
			t.Fatalf("register %s: unexpected response %+v", key, reg)
		}
	}
	return srv, ts
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal %s body: %v", path, err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// getJSON fetches path and decodes the body into v.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	decodeBody(t, resp, v)
	return resp
}

// TestServedElectMatchesInProcess is the tentpole acceptance check: the HTTP
// elect and batch endpoints must produce outcomes bit-identical to the
// in-process Registry.Elect (which is itself pinned against direct
// Dedicated.Elect by the service tests).
func TestServedElectMatchesInProcess(t *testing.T) {
	srv, ts := newTestServer(t)
	var keys []string
	for key := range testConfigs() {
		keys = append(keys, key)

		direct, err := srv.Registry().Elect(key)
		if err != nil {
			t.Fatalf("in-process elect %s: %v", key, err)
		}
		resp := postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: key})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("elect %s: status %d", key, resp.StatusCode)
		}
		var out wire.Outcome
		decodeBody(t, resp, &out)
		if !out.Elected || out.Leader != direct.Leader || out.Rounds != direct.Rounds || out.Key != key {
			t.Fatalf("elect %s: served %+v, in-process leader=%d rounds=%d", key, out, direct.Leader, direct.Rounds)
		}
	}

	// Batch: same outcomes, submission order preserved, repeated keys fine.
	keys = append(keys, keys[0], keys[1])
	resp := postJSON(t, ts, "/v1/elect/batch", wire.BatchRequest{Keys: keys})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	var batch wire.BatchResponse
	decodeBody(t, resp, &batch)
	if len(batch.Outcomes) != len(keys) || batch.Failures != 0 {
		t.Fatalf("batch: %d outcomes (%d failures), want %d/0", len(batch.Outcomes), batch.Failures, len(keys))
	}
	for i, out := range batch.Outcomes {
		direct, err := srv.Registry().Elect(keys[i])
		if err != nil {
			t.Fatalf("in-process elect %s: %v", keys[i], err)
		}
		if !out.Elected || out.Key != keys[i] || out.Leader != direct.Leader || out.Rounds != direct.Rounds {
			t.Fatalf("batch[%d]=%s: served %+v, in-process leader=%d rounds=%d", i, keys[i], out, direct.Leader, direct.Rounds)
		}
	}
}

// TestRegisterArtifact admits a pre-compiled artifact over HTTP and checks
// the served election matches the artifact's designated leader.
func TestRegisterArtifact(t *testing.T) {
	_, ts := newTestServer(t)
	cfg := config.StaggeredClique(6)
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "artifact-6", Config: cfg.Marshal(), Artifact: d.Compile()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register artifact: status %d", resp.StatusCode)
	}
	var reg wire.RegisterResponse
	decodeBody(t, resp, &reg)
	if reg.Source != "artifact" {
		t.Fatalf("register artifact: source %q, want artifact", reg.Source)
	}
	resp = postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: "artifact-6"})
	var out wire.Outcome
	decodeBody(t, resp, &out)
	if !out.Elected || out.Leader != d.ExpectedLeader {
		t.Fatalf("artifact elect: %+v, want leader %d", out, d.ExpectedLeader)
	}
}

// TestErrorStatuses pins the HTTP status mapping of the API reference in
// docs/SERVER.md.
func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t)
	infeasible := config.SymmetricPair()
	cases := []struct {
		name   string
		do     func() *http.Response
		status int
	}{
		{"elect unknown key", func() *http.Response {
			return postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: "nope"})
		}, http.StatusNotFound},
		{"elect missing key", func() *http.Response {
			return postJSON(t, ts, "/v1/elect", wire.ElectRequest{})
		}, http.StatusBadRequest},
		{"malformed body", func() *http.Response {
			resp, err := ts.Client().Post(ts.URL+"/v1/elect", "application/json", strings.NewReader("{nope"))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			return resp
		}, http.StatusBadRequest},
		{"register infeasible", func() *http.Response {
			return postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "sym", Config: infeasible.Marshal()})
		}, http.StatusUnprocessableEntity},
		{"register bad config", func() *http.Response {
			return postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "bad", Config: "nodes x"})
		}, http.StatusBadRequest},
		{"register missing config", func() *http.Response {
			return postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "bad"})
		}, http.StatusBadRequest},
		{"evict unknown key", func() *http.Response {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/configs/nope", nil)
			if err != nil {
				t.Fatalf("new request: %v", err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatalf("DELETE: %v", err)
			}
			return resp
		}, http.StatusNotFound},
		{"batch empty", func() *http.Response {
			return postJSON(t, ts, "/v1/elect/batch", wire.BatchRequest{})
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := tc.do()
		var e wire.ErrorMessage
		decodeBody(t, resp, &e)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, e.Error, tc.status)
		} else if e.Error == "" {
			t.Errorf("%s: missing error body", tc.name)
		}
	}
}

// TestBatchPerKeyFailures checks that a mixed batch answers 200 with the
// failures confined to their slots.
func TestBatchPerKeyFailures(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts, "/v1/elect/batch", wire.BatchRequest{Keys: []string{"clique-8", "nope", "path-7"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	var batch wire.BatchResponse
	decodeBody(t, resp, &batch)
	if batch.Failures != 1 || len(batch.Outcomes) != 3 {
		t.Fatalf("batch: %+v, want 3 outcomes / 1 failure", batch)
	}
	if batch.Outcomes[0].Error != "" || batch.Outcomes[2].Error != "" {
		t.Fatalf("batch: healthy slots carry errors: %+v", batch.Outcomes)
	}
	if batch.Outcomes[1].Error == "" || batch.Outcomes[1].Elected {
		t.Fatalf("batch: unknown-key slot not failed: %+v", batch.Outcomes[1])
	}
}

// TestEvictAndHealth exercises the evict round trip and the health body.
func TestEvictAndHealth(t *testing.T) {
	_, ts := newTestServer(t)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/configs/clique-8", nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	var ev EvictResponse
	decodeBody(t, resp, &ev)
	if resp.StatusCode != http.StatusOK || !ev.Evicted {
		t.Fatalf("evict: status %d body %+v", resp.StatusCode, ev)
	}
	if resp := postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: "clique-8"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("elect after evict: status %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var health HealthResponse
	decodeBody(t, hr, &health)
	if health.Status != "ok" || health.Configs != len(testConfigs())-1 || health.Shards != 3 {
		t.Fatalf("health: %+v", health)
	}
}

// TestStatsCounters checks that the stats endpoint reports both the registry
// counters and the per-endpoint latency/outcome counters.
func TestStatsCounters(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: "path-7"})
		resp.Body.Close()
	}
	resp := postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: "nope"})
	resp.Body.Close()

	sr, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	var stats StatsResponse
	decodeBody(t, sr, &stats)
	if stats.Totals.Elections != 5 || stats.Totals.Configs != len(testConfigs()) {
		t.Fatalf("registry totals: %+v", stats.Totals)
	}
	if len(stats.Shards) != 3 {
		t.Fatalf("shard rows: %d, want 3", len(stats.Shards))
	}
	byName := map[string]EndpointStats{}
	for _, ep := range stats.Endpoints {
		byName[ep.Endpoint] = ep
	}
	elect := byName["POST /v1/elect"]
	if elect.Requests != 6 || elect.Failures != 1 || elect.Elections != 5 {
		t.Fatalf("elect endpoint counters: %+v", elect)
	}
	if elect.MeanMicros <= 0 || elect.MaxMicros < elect.MeanMicros {
		t.Fatalf("elect latency counters: %+v", elect)
	}
	reg := byName["POST /v1/register"]
	if reg.Requests != int64(len(testConfigs())) || reg.Failures != 0 {
		t.Fatalf("register endpoint counters: %+v", reg)
	}
}

// TestGracefulShutdown starts a real listener, checks it serves, shuts it
// down, and checks the listener refuses while the registry stays usable
// (the daemon snapshots after shutdown).
func TestGracefulShutdown(t *testing.T) {
	reg := service.New(service.Options{Shards: 2})
	defer reg.Close()
	if err := reg.Register("k", config.StaggeredClique(5)); err != nil {
		t.Fatalf("register: %v", err)
	}
	srv := New(reg, Options{})
	ts := httptest.NewUnstartedServer(srv.Handler())
	addr := ts.Listener.Addr().String()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ts.Listener) }()

	url := "http://" + addr + "/healthz"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	if out, err := reg.Elect("k"); err != nil || !out.Elected() {
		t.Fatalf("registry unusable after server shutdown: %v %+v", err, out)
	}
}

// TestBatchLimit pins the batch-size cap.
func TestBatchLimit(t *testing.T) {
	reg := service.New(service.Options{Shards: 1})
	defer reg.Close()
	srv := New(reg, Options{MaxBatchKeys: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postJSON(t, ts, "/v1/elect/batch", wire.BatchRequest{Keys: make([]string, 5)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

// BenchmarkServedElect measures one served election over a loopback HTTP
// round trip (keep-alive client), the number docs/PERFORMANCE.md quotes
// against the in-process ElectBatch path.
func BenchmarkServedElect(b *testing.B) {
	reg := service.New(service.Options{Shards: 2})
	defer reg.Close()
	if err := reg.Register("k", config.StaggeredClique(16)); err != nil {
		b.Fatalf("register: %v", err)
	}
	srv := New(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(wire.ElectRequest{Key: "k"})
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/elect", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatalf("POST: %v", err)
		}
		var out wire.Outcome
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatalf("decode: %v", err)
		}
		resp.Body.Close()
		if !out.Elected {
			b.Fatalf("election failed: %+v", out)
		}
	}
}

// BenchmarkServedElectBatch measures served batched elections per key at a
// few batch sizes.
func BenchmarkServedElectBatch(b *testing.B) {
	reg := service.New(service.Options{Shards: 2})
	defer reg.Close()
	if err := reg.Register("k", config.StaggeredClique(16)); err != nil {
		b.Fatalf("register: %v", err)
	}
	srv := New(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	for _, size := range []int{8, 64} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			keys := make([]string, size)
			for i := range keys {
				keys[i] = "k"
			}
			body, _ := json.Marshal(wire.BatchRequest{Keys: keys})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				resp, err := client.Post(ts.URL+"/v1/elect/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatalf("POST: %v", err)
				}
				var out wire.BatchResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					b.Fatalf("decode: %v", err)
				}
				resp.Body.Close()
				if out.Failures != 0 {
					b.Fatalf("batch failures: %+v", out)
				}
			}
		})
	}
}
