package server

import (
	"net/http"
	"strings"
	"testing"
)

// TestRegisterOverflowingTag422 registers a 2-node configuration whose huge
// tag overflows the canonical DRIP's round arithmetic: the answer is 422
// with an error body, and the daemon goes on serving.
func TestRegisterOverflowingTag422(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts, "/v1/register", RegisterRequest{Key: "huge", Config: "nodes 2\ntag 0 0\ntag 1 4611686018427387904\nedge 0 1\n"})
	var e ErrorResponse
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
