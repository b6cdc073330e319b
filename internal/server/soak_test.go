package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/service"
)

// soakEntries builds a soak-start request churning two fresh keys.
func soakEntries() []SoakEntry {
	return []SoakEntry{
		{Key: "churn-a", Config: config.StaggeredClique(8).Marshal()},
		{Key: "churn-b", Config: config.StaggeredPath(7, 2).Marshal()},
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

// TestSoakEndpoints drives the full soak lifecycle over HTTP: status before
// any soak, start, live status with progressing counters, double-start
// conflict, stop with final counters, and the no-lost-admissions guarantee
// — every churned key serves elections after the soak stops.
func TestSoakEndpoints(t *testing.T) {
	_, ts := newTestServer(t)

	var status SoakStatusResponse
	if resp := getJSON(t, ts, "/v1/soak/status", &status); resp.StatusCode != http.StatusOK || status.Active {
		t.Fatalf("pre-soak status: %d %+v", resp.StatusCode, status)
	}

	resp := postJSON(t, ts, "/v1/soak/start", SoakStartRequest{Entries: soakEntries()})
	var started SoakStatusResponse
	decodeBody(t, resp, &started)
	if resp.StatusCode != http.StatusOK || !started.Active || len(started.Keys) != 2 {
		t.Fatalf("start: %d %+v", resp.StatusCode, started)
	}

	// A second start while one is running is a conflict.
	resp = postJSON(t, ts, "/v1/soak/start", SoakStartRequest{Entries: soakEntries()})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double start: status %d, want 409", resp.StatusCode)
	}

	// The soak progresses while elections keep serving (churned keys may be
	// mid-cycle, so 404s are legal there; stable keys never fail).
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts, "/v1/soak/status", &status)
		if status.Stats.Cycles >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("soak made no progress: %+v", status)
		}
		resp := postJSON(t, ts, "/v1/elect", ElectRequest{Key: "clique-8"})
		var out Outcome
		decodeBody(t, resp, &out)
		if resp.StatusCode != http.StatusOK || !out.Elected {
			t.Fatalf("elect during soak: %d %+v", resp.StatusCode, out)
		}
	}

	resp = postJSON(t, ts, "/v1/soak/stop", struct{}{})
	var final SoakStatusResponse
	decodeBody(t, resp, &final)
	if resp.StatusCode != http.StatusOK || final.Active {
		t.Fatalf("stop: %d %+v", resp.StatusCode, final)
	}
	if final.Stats.Cycles < 10 || final.Stats.Readmissions == 0 || final.Stats.Failures != 0 {
		t.Fatalf("final soak stats: %+v", final.Stats)
	}

	// No lost admissions: every churned key still serves.
	for _, e := range soakEntries() {
		resp := postJSON(t, ts, "/v1/elect", ElectRequest{Key: e.Key})
		var out Outcome
		decodeBody(t, resp, &out)
		if resp.StatusCode != http.StatusOK || !out.Elected {
			t.Fatalf("post-soak elect %s: %d %+v", e.Key, resp.StatusCode, out)
		}
	}

	// Stopping again is idempotent at the HTTP layer too.
	resp = postJSON(t, ts, "/v1/soak/stop", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-stop: status %d", resp.StatusCode)
	}
}

func TestSoakValidation(t *testing.T) {
	reg := service.New(service.Options{Shards: 2})
	t.Cleanup(reg.Close)
	srv := New(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Stop before any start is a 404.
	resp := postJSON(t, ts, "/v1/soak/stop", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stop before start: status %d, want 404", resp.StatusCode)
	}

	bad := []SoakStartRequest{
		{},
		{Entries: []SoakEntry{{Key: "", Config: "nodes 1"}}},
		{Entries: []SoakEntry{{Key: "k", Config: "not a config"}}},
		{Entries: soakEntries(), IntervalMicros: -1},
	}
	for i, req := range bad {
		resp := postJSON(t, ts, "/v1/soak/start", req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad start %d: status %d, want 400", i, resp.StatusCode)
		}
	}
}

// TestShutdownStopsSoak pins the drain ordering: Shutdown stops an active
// soak before closing the listener, so a drained server leaves every
// churned key admitted and no churn goroutine behind.
func TestShutdownStopsSoak(t *testing.T) {
	reg := service.New(service.Options{Shards: 2})
	t.Cleanup(reg.Close)
	srv := New(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// The soak churns keys that are already admitted, as a deployment
	// registers them before starting it; it never admits a key it has not
	// yet reached, so without this Shutdown could stop it first.
	for _, e := range soakEntries() {
		cfg, err := config.Unmarshal(e.Config)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(e.Key, cfg); err != nil {
			t.Fatal(err)
		}
	}
	resp := postJSON(t, ts, "/v1/soak/start", SoakStartRequest{Entries: soakEntries()})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start: status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	srv.soakMu.Lock()
	soak := srv.soak
	srv.soakMu.Unlock()
	if st := soak.Stats(); st.Running {
		t.Fatalf("soak still running after shutdown: %+v", st)
	}
	// The registry outlives the server; both churned keys must be admitted.
	for _, e := range soakEntries() {
		if out, err := reg.Elect(e.Key); err != nil || !out.Elected() {
			t.Fatalf("post-shutdown elect %s: %+v, %v", e.Key, out, err)
		}
	}
}
