package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// TestJSONElectHandlerAllocs pins the pooled JSON elect path to its budget:
// at most 16 allocations per served request end to end through the mux,
// instrumentation, strict decode, election, and indented encode. (Before
// pooling the same path cost 18; what remains is the per-request
// json.Decoder, the decoded key string, and encoder internals.)
func TestJSONElectHandlerAllocs(t *testing.T) {
	reg := service.New(service.Options{Shards: 1})
	t.Cleanup(reg.Close)
	if err := reg.Register("k", config.StaggeredClique(12)); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Options{})
	h := srv.Handler()

	payload := []byte(`{"key":"k"}`)
	body := bytes.NewReader(payload)
	rc := io.NopCloser(body)
	req, err := http.NewRequest(http.MethodPost, "/v1/elect", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(len(payload))
	w := &resetWriter{h: make(http.Header)}

	run := func() {
		body.Seek(0, io.SeekStart)
		req.Body = rc
		w.buf.Reset()
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d, body %q", w.status, w.buf.String())
		}
	}
	run()
	run()
	budget := 16.0
	if raceEnabled {
		budget = 20 // the race detector allocates on instrumented paths
	}
	allocs := testing.AllocsPerRun(200, run)
	if allocs > budget {
		t.Fatalf("JSON elect path allocates %.1f times per request, budget is %.0f", allocs, budget)
	}
	t.Logf("JSON elect path: %.1f allocs/op", allocs)
}

// TestPooledJSONByteStability asserts the pooled codec changes where the
// bytes come from, never what they are: repeated elect and batch requests
// produce identical bodies, matching the unpooled writeJSON encoding
// (indented, trailing newline), with an exact Content-Length.
func TestPooledJSONByteStability(t *testing.T) {
	reg := service.New(service.Options{Shards: 2})
	t.Cleanup(reg.Close)
	if err := reg.Register("k", config.StaggeredClique(10)); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Options{})
	h := srv.Handler()

	serve := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	var first string
	for i := 0; i < 5; i++ {
		rec := serve("/v1/elect", `{"key":"k"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %q", i, rec.Code, rec.Body.String())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("request %d: Content-Length %q, body is %d bytes", i, cl, rec.Body.Len())
		}
		if i == 0 {
			first = rec.Body.String()
			// The pooled encoder must match the unpooled encoding exactly.
			var out wire.Outcome
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			want, _ := json.MarshalIndent(out, "", "  ")
			if first != string(want)+"\n" {
				t.Fatalf("pooled encoding diverged from writeJSON's:\n got %q\nwant %q", first, string(want)+"\n")
			}
		} else if rec.Body.String() != first {
			t.Fatalf("request %d body diverged:\n got %q\nwant %q", i, rec.Body.String(), first)
		}
	}

	// Batch scratch reuse across differently-sized batches must not leak
	// outcomes between requests.
	for _, n := range []int{3, 1, 2} {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = "k"
		}
		body, _ := json.Marshal(wire.BatchRequest{Keys: keys})
		rec := serve("/v1/elect/batch", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch of %d: status %d, body %q", n, rec.Code, rec.Body.String())
		}
		var resp wire.BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Outcomes) != n || resp.Failures != 0 {
			t.Fatalf("batch of %d answered %d outcomes, %d failures: %s", n, len(resp.Outcomes), resp.Failures, rec.Body.String())
		}
	}

	// Strictness survives pooling: unknown fields and trailing data stay 400s.
	if rec := serve("/v1/elect", `{"key":"k","bogus":1}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field answered %d, want 400", rec.Code)
	}
	if rec := serve("/v1/elect", `{"key":"k"} {"key":"k"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("trailing data answered %d, want 400", rec.Code)
	}
	if rec := serve("/v1/elect", fmt.Sprintf(`{"key":%q}`, "missing")); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown key answered %d, want 404", rec.Code)
	}
}
