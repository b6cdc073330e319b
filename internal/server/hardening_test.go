package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// newGatedServer boots a server whose registry parks every build for the
// given keys until the returned release is called — the deterministic way
// to observe backpressure and in-flight admissions over HTTP.
func newGatedServer(t *testing.T, opts service.Options, hold func(key string) bool) (*httptest.Server, func()) {
	t.Helper()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	opts.BuildHook = func(key string) {
		if hold(key) {
			<-gate
		}
	}
	reg := service.New(opts)
	srv := New(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(reg.Close)
	t.Cleanup(ts.Close)
	t.Cleanup(release) // release before Close (cleanups run LIFO)
	return ts, release
}

// TestOversizedBody413 pins the MaxBodyBytes contract: a body over the cap
// answers 413 with a clear message, not a generic 400 decode error.
func TestOversizedBody413(t *testing.T) {
	reg := service.New(service.Options{Shards: 1})
	defer reg.Close()
	srv := New(reg, Options{MaxBodyBytes: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "big", Config: strings.Repeat("x", 1024)})
	var e wire.ErrorMessage
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%s), want 413", resp.StatusCode, e.Error)
	}
	if !strings.Contains(e.Error, "256-byte limit") {
		t.Fatalf("oversized body error does not name the limit: %q", e.Error)
	}
	// A body under the cap still works end to end.
	if resp := postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: "nope"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("under-cap request: status %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestRegisterUnconnectableNodeCount400 pins the parser's size bound at the
// HTTP surface: a tiny body declaring more nodes than its bytes can connect
// answers 400 over both encodings, naming the count, without the daemon
// allocating for those nodes.
func TestRegisterUnconnectableNodeCount400(t *testing.T) {
	_, ts := newTestServer(t)
	text := "name big\nnodes 50000000\n"
	resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "big", Config: text})
	var e wire.ErrorMessage
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "nodes 50000000") {
		t.Fatalf("JSON register: status %d (%s), want 400 naming the node count", resp.StatusCode, e.Error)
	}
	resp = postBinary(t, ts, "/v1/register", wire.AppendRegisterRequestFrame(nil, &wire.RegisterRequest{Key: "big", Config: text}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("binary register: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestStrictDecoding pins the 400 contract of docs/SERVER.md: unknown
// fields (typo'd "artifcat") and trailing data fail loudly; trailing
// whitespace is fine.
func TestStrictDecoding(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/register", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		return resp
	}
	cases := []struct {
		name, body string
		status     int
	}{
		{"typo'd field", `{"key": "k", "config": "nodes 1\ntag 0 0\n", "artifcat": {}}`, http.StatusBadRequest},
		{"trailing object", `{"key": "k", "config": "nodes 1\ntag 0 0\n"}{"key": "x"}`, http.StatusBadRequest},
		{"trailing garbage", `{"key": "k", "config": "nodes 1\ntag 0 0\n"} trailing`, http.StatusBadRequest},
		{"trailing whitespace ok", `{"key": "k", "config": "nodes 1\ntag 0 0\n"}` + "\n  \t\n", http.StatusOK},
	}
	for _, tc := range cases {
		resp := post(tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		resp.Body.Close()
	}
}

// pollAdmission polls the status endpoint until the key's admission is
// terminal, returning the final body.
func pollAdmission(t *testing.T, ts *httptest.Server, key string) AdmissionStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/register/status/" + key)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET status %s: %d", key, resp.StatusCode)
		}
		var st AdmissionStatusResponse
		decodeBody(t, resp, &st)
		if st.State == "done" || st.State == "failed" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission of %q never finished (state %s)", key, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncRegisterAndBackpressure drives the full async admission flow
// over HTTP: 202 + status URL while the build is deterministically held
// open, 429 + Retry-After once the bounded queue fills, drain to "done"
// after release, and the admission counters on /v1/stats.
func TestAsyncRegisterAndBackpressure(t *testing.T) {
	ts, release := newGatedServer(t,
		service.Options{Shards: 1, Builders: 1, AdmissionQueue: 1},
		func(string) bool { return true })
	cfg := config.StaggeredClique(6).Marshal()

	// First async admission: accepted, pollable, held mid-build.
	resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "a", Config: cfg, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async register: status %d, want 202", resp.StatusCode)
	}
	var rr wire.RegisterResponse
	decodeBody(t, resp, &rr)
	if rr.Status != "pending" || rr.StatusURL != "/v1/register/status/a" {
		t.Fatalf("async register response: %+v", rr)
	}
	// Wait until the builder holds it, so the next admission fills the queue.
	deadline := time.Now().Add(30 * time.Second)
	for {
		sr, err := ts.Client().Get(ts.URL + rr.StatusURL)
		if err != nil {
			t.Fatalf("GET status: %v", err)
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

	// Second fills the queue; third must bounce with 429 + Retry-After.
	if resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "b", Config: cfg, Async: true}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling register: status %d, want 202", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	busy := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "c", Config: cfg})
	var e wire.ErrorMessage
	decodeBody(t, busy, &e)
	if busy.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull queue: status %d (%s), want 429", busy.StatusCode, e.Error)
	}
	if busy.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without a Retry-After header")
	}

	// Elections and health stay responsive while the build is held.
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var health HealthResponse
	decodeBody(t, hr, &health)
	if health.Status != "ok" || health.PendingAdmissions != 2 {
		t.Fatalf("health during held build: %+v, want ok with 2 pending admissions", health)
	}

	// Release the build; both held admissions must land and serve.
	release()
	for _, key := range []string{"a", "b"} {
		if st := pollAdmission(t, ts, key); st.State != "done" || st.Error != "" {
			t.Fatalf("admission of %q ended %+v", key, st)
		}
		resp := postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: key})
		var out wire.Outcome
		decodeBody(t, resp, &out)
		if resp.StatusCode != http.StatusOK || !out.Elected {
			t.Fatalf("elect %q after drain: status %d, %+v", key, resp.StatusCode, out)
		}
	}
	// The rejected key re-registers fine once the queue drained.
	again := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "c", Config: cfg})
	decodeBody(t, again, &rr)
	if again.StatusCode != http.StatusOK || rr.Status != "admitted" {
		t.Fatalf("register after drain: status %d, %+v", again.StatusCode, rr)
	}

	sr, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	var stats StatsResponse
	decodeBody(t, sr, &stats)
	if stats.Admission.Rejected != 1 || stats.Admission.Completed != 3 || stats.Admission.Pending != 0 {
		t.Fatalf("admission counters: %+v, want 1 rejected / 3 completed / 0 pending", stats.Admission)
	}
}

// TestAsyncRegisterFailureStatus checks that an infeasible async admission
// reports through the status endpoint, and that polling a never-admitted
// key is a 404.
func TestAsyncRegisterFailureStatus(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "sym", Config: config.SymmetricPair().Marshal(), Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async register: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
	st := pollAdmission(t, ts, "sym")
	if st.State != "failed" || !strings.Contains(st.Error, "infeasible") {
		t.Fatalf("infeasible async admission: %+v, want failed/infeasible", st)
	}
	nr, err := ts.Client().Get(ts.URL + "/v1/register/status/never-admitted")
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer nr.Body.Close()
	if nr.StatusCode != http.StatusNotFound {
		t.Fatalf("status of a never-admitted key: %d, want 404", nr.StatusCode)
	}
}

// TestStatsAfterClose503 pins the closed-registry mapping of /v1/stats: an
// explicit 503, never an all-zero table that reads as a healthy empty
// server.
func TestStatsAfterClose503(t *testing.T) {
	reg := service.New(service.Options{Shards: 2})
	srv := New(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := reg.Register("k", config.StaggeredClique(5)); err != nil {
		t.Fatal(err)
	}
	reg.Close()

	sr, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	var e wire.ErrorMessage
	decodeBody(t, sr, &e)
	if sr.StatusCode != http.StatusServiceUnavailable || e.Error == "" {
		t.Fatalf("stats after close: status %d (%s), want 503", sr.StatusCode, e.Error)
	}
	// The liveness probe still answers from cached counters.
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var health HealthResponse
	decodeBody(t, hr, &health)
	if hr.StatusCode != http.StatusOK || health.Configs != 1 {
		t.Fatalf("health after close: status %d, %+v", hr.StatusCode, health)
	}
}

// TestEvictAfterClose503 pins that a closed registry answers an evict with
// 503, like an elect, and never with the 404 "no configuration registered"
// that a router would take as proof the key is gone.
func TestEvictAfterClose503(t *testing.T) {
	reg := service.New(service.Options{Shards: 2})
	ts := httptest.NewServer(New(reg, Options{}).Handler())
	defer ts.Close()
	if err := reg.Register("k", config.StaggeredClique(5)); err != nil {
		t.Fatal(err)
	}
	reg.Close()

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/configs/k", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("DELETE /v1/configs/k: %v", err)
	}
	var e wire.ErrorMessage
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusServiceUnavailable || e.Error == "" {
		t.Fatalf("evict after close: status %d (%s), want 503", resp.StatusCode, e.Error)
	}
	resp = postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: "k"})
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("elect after close: status %d (%s), want 503", resp.StatusCode, e.Error)
	}
}

// TestHealthDuringSlowAdmission pins the liveness contract: with the only
// builder deterministically parked mid-build, /healthz must still answer
// from cached counters. (internal/service's TestLenDuringSlowAdmission
// parks the shard worker itself.)
func TestHealthDuringSlowAdmission(t *testing.T) {
	entered := make(chan struct{})
	var once sync.Once
	ts, release := newGatedServer(t,
		service.Options{Shards: 1, Builders: 1},
		func(key string) bool {
			if key != "slow" {
				return false
			}
			once.Do(func() { close(entered) })
			return true
		})

	if resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "fast", Config: config.StaggeredClique(5).Marshal()}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register fast: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	slowDone := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "slow", Config: config.StaggeredClique(6).Marshal()})
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()
	<-entered // the only builder is parked inside the build

	healthDone := make(chan HealthResponse, 1)
	go func() {
		hr, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Errorf("GET /healthz: %v", err)
			healthDone <- HealthResponse{}
			return
		}
		var health HealthResponse
		decodeBody(t, hr, &health)
		healthDone <- health
	}()
	select {
	case health := <-healthDone:
		if health.Status != "ok" || health.Configs != 1 {
			t.Fatalf("health during held build: %+v", health)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/healthz blocked behind a mid-build builder")
	}

	release()
	if code := <-slowDone; code != http.StatusOK {
		t.Fatalf("held register finished with status %d", code)
	}
}

// TestAsyncStatusURLEscaping checks that the 202 response's status_url
// resolves for keys carrying URL-reserved characters (the URL is
// path-escaped; the mux unescapes the wildcard back to the key).
func TestAsyncStatusURLEscaping(t *testing.T) {
	_, ts := newTestServer(t)
	key := "weird key?v=2/with#stuff and %2F"
	resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: key, Config: config.SingleNode().Marshal(), Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async register: status %d, want 202", resp.StatusCode)
	}
	var rr wire.RegisterResponse
	decodeBody(t, resp, &rr)
	deadline := time.Now().Add(30 * time.Second)
	for {
		sr, err := ts.Client().Get(ts.URL + rr.StatusURL)
		if err != nil {
			t.Fatalf("GET %s: %v", rr.StatusURL, err)
		}
		if sr.StatusCode != http.StatusOK {
			sr.Body.Close()
			t.Fatalf("GET %s: status %d, want 200", rr.StatusURL, sr.StatusCode)
		}
		var st AdmissionStatusResponse
		decodeBody(t, sr, &st)
		if st.Key != key {
			t.Fatalf("status URL resolved to key %q, want %q", st.Key, key)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("admission of %q ended %+v", key, st)
		}
		time.Sleep(time.Millisecond)
	}
	elect := postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: key})
	var out wire.Outcome
	decodeBody(t, elect, &out)
	if !out.Elected {
		t.Fatalf("elect on the escaped key: %+v", out)
	}
}
