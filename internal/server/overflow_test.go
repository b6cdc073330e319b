package server

import (
	"net/http"
	"runtime"
	"strings"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/wire"
)

// TestRegisterOverflowingTag422 registers a 2-node configuration whose huge
// tag overflows the canonical DRIP's round arithmetic: the answer is 422
// with an error body, and the daemon goes on serving.
func TestRegisterOverflowingTag422(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "huge", Config: "nodes 2\ntag 0 0\ntag 1 4611686018427387904\nedge 0 1\n"})
	var e wire.ErrorMessage
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "overflow") {
		t.Fatalf("status %d, error %q; want 422 naming the overflow", resp.StatusCode, e.Error)
	}
	health, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the rejected register: status %d", health.StatusCode)
	}
}

// TestRegisterHugeSpan422 registers two configurations no build may
// admit: a 2-node path with tags {0, 10⁶}, whose round bound passes the
// round limit, and a 400-node path with tags 600·i, whose round bound
// 957,603 stays under it but whose election would record into a
// 400·957,604-byte code matrix, over canonical.MaxCodeMatrix. Each
// answer must be 422 naming the overflow, and each whole request — client,
// handler and registry — must allocate under 1 MiB: the guards run before
// the protocol's round plans (about 48 MB for the first) or a code matrix
// exist. An admitted 400-node path used to leave about 400 MiB live.
func TestRegisterHugeSpan422(t *testing.T) {
	_, ts := newTestServer(t)
	for _, cfg := range []string{
		"nodes 2\ntag 0 0\ntag 1 1000000\nedge 0 1\n",
		config.StaggeredPath(400, 600).Marshal(),
	} {
		body := wire.RegisterRequest{Key: "span", Config: cfg}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := postJSON(t, ts, "/v1/register", body)
		var e wire.ErrorMessage
		decodeBody(t, resp, &e)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "overflow") {
			t.Fatalf("status %d, error %q; want 422 naming the overflow", resp.StatusCode, e.Error)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("the rejected register allocated %d bytes, want under 1 MiB", alloc)
		}
	}
}
