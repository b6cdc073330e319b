package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/radio"
	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// postBinary sends one wire frame to path and returns the response.
func postBinary(t *testing.T, ts *httptest.Server, path string, frame []byte) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("POST %s (binary): %v", path, err)
	}
	return resp
}

// readFrame reads the response body and unwraps its single frame, asserting
// the binary content type.
func readFrame(t *testing.T, resp *http.Response) (wire.FrameType, []byte) {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("binary response has Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	typ, payload, rest, err := wire.DecodeFrame(body)
	if err != nil || len(rest) != 0 {
		t.Fatalf("response is not a single frame: %v (%d trailing)", err, len(rest))
	}
	return typ, payload
}

// TestBinaryElectMatchesJSONAndEngines is the cross-encoding acceptance
// check: keys registered over the binary endpoint serve elections whose
// outcomes are identical over JSON, over binary, in process, and on direct
// Dedicated elections.
func TestBinaryElectMatchesJSONAndEngines(t *testing.T) {
	reg := service.New(service.Options{Shards: 3})
	t.Cleanup(reg.Close)
	srv := New(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Register the fleet over the binary endpoint.
	for key, cfg := range testConfigs() {
		frame := wire.AppendRegisterRequestFrame(nil, &wire.RegisterRequest{Key: key, Config: cfg.Marshal()})
		resp := postBinary(t, ts, "/v1/register", frame)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("binary register %s: status %d", key, resp.StatusCode)
		}
		typ, payload := readFrame(t, resp)
		var rr wire.RegisterResponse
		if typ != wire.FrameRegisterResponse || rr.DecodeFrom(payload) != nil {
			t.Fatalf("binary register %s: frame %v", key, typ)
		}
		if rr.Key != key || rr.Source != "built" || rr.Status != "admitted" {
			t.Fatalf("binary register %s: %+v", key, rr)
		}
	}

	var keys []string
	for key, cfg := range testConfigs() {
		keys = append(keys, key)

		// Binary elect.
		frame := wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: key})
		resp := postBinary(t, ts, "/v1/elect", frame)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("binary elect %s: status %d", key, resp.StatusCode)
		}
		typ, payload := readFrame(t, resp)
		var bin wire.Outcome
		if typ != wire.FrameOutcome || bin.DecodeFrom(payload) != nil {
			t.Fatalf("binary elect %s: frame %v", key, typ)
		}

		// JSON elect on the same handler.
		jresp := postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: key})
		if jresp.StatusCode != http.StatusOK {
			t.Fatalf("json elect %s: status %d", key, jresp.StatusCode)
		}
		var js wire.Outcome
		decodeBody(t, jresp, &js)

		if !bin.Elected || bin.Key != key || bin.Leader != js.Leader || bin.Rounds != js.Rounds || js.Error != bin.Error {
			t.Fatalf("%s: binary %+v vs json %+v", key, bin, js)
		}
		d, err := election.BuildDedicated(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := d.Elect(radio.Options{})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if out.Leader() != bin.Leader || out.Rounds != bin.Rounds {
			t.Fatalf("%s: direct leader=%d rounds=%d, binary leader=%d rounds=%d",
				key, out.Leader(), out.Rounds, bin.Leader, bin.Rounds)
		}
	}

	// Batch over both encodings: same outcomes slot for slot, including a
	// per-key failure in the middle.
	keys = append(keys[:1], append([]string{"no-such-key"}, keys[1:]...)...)
	bframe := wire.AppendBatchRequestFrame(nil, &wire.BatchRequest{Keys: keys})
	resp := postBinary(t, ts, "/v1/elect/batch", bframe)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch: status %d", resp.StatusCode)
	}
	typ, payload := readFrame(t, resp)
	var bbatch wire.BatchResponse
	if typ != wire.FrameBatchResponse || bbatch.DecodeFrom(payload) != nil {
		t.Fatalf("binary batch: frame %v", typ)
	}
	jresp := postJSON(t, ts, "/v1/elect/batch", wire.BatchRequest{Keys: keys})
	var jbatch wire.BatchResponse
	decodeBody(t, jresp, &jbatch)
	if len(bbatch.Outcomes) != len(jbatch.Outcomes) || bbatch.Failures != jbatch.Failures || bbatch.Failures != 1 {
		t.Fatalf("batch shapes diverge: binary %d/%d, json %d/%d",
			len(bbatch.Outcomes), bbatch.Failures, len(jbatch.Outcomes), jbatch.Failures)
	}
	for i := range bbatch.Outcomes {
		b, j := bbatch.Outcomes[i], jbatch.Outcomes[i]
		if b.Key != j.Key || b.Elected != j.Elected || b.Leader != j.Leader || b.Rounds != j.Rounds || b.Error != j.Error {
			t.Fatalf("batch[%d]: binary %+v vs json %+v", i, b, j)
		}
	}
}

// TestBinaryRegisterArtifact round-trips a compiled artifact through the
// binary register endpoint and checks the served election matches the
// artifact's designated leader.
func TestBinaryRegisterArtifact(t *testing.T) {
	_, ts := newTestServer(t)
	cfg := config.StaggeredClique(6)
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compiled := d.Compile()
	frame := wire.AppendRegisterRequestFrame(nil, &wire.RegisterRequest{
		Key: "from-artifact-bin", Config: cfg.Marshal(), Artifact: compiled,
	})
	resp := postBinary(t, ts, "/v1/register", frame)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	typ, payload := readFrame(t, resp)
	var rr wire.RegisterResponse
	if typ != wire.FrameRegisterResponse || rr.DecodeFrom(payload) != nil || rr.Source != "artifact" {
		t.Fatalf("register response: %v %+v", typ, rr)
	}
	eframe := wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: "from-artifact-bin"})
	eresp := postBinary(t, ts, "/v1/elect", eframe)
	typ, payload = readFrame(t, eresp)
	var out wire.Outcome
	if typ != wire.FrameOutcome || out.DecodeFrom(payload) != nil {
		t.Fatalf("elect response: %v", typ)
	}
	if !out.Elected || out.Leader != compiled.ExpectedLeader {
		t.Fatalf("artifact-admitted key served %+v, want leader %d", out, compiled.ExpectedLeader)
	}
}

// TestBinaryErrorFrames pins the binary path's error behavior: the JSON
// path's status mapping, carried in error frames of the binary content
// type.
func TestBinaryErrorFrames(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name   string
		path   string
		frame  []byte
		status int
		substr string
	}{
		{"unknown key", "/v1/elect",
			wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: "missing"}),
			http.StatusNotFound, "missing"},
		{"empty key", "/v1/elect",
			wire.AppendElectRequestFrame(nil, &wire.ElectRequest{}),
			http.StatusBadRequest, "missing key"},
		{"garbage body", "/v1/elect",
			[]byte("definitely not a frame"),
			http.StatusBadRequest, "decoding request frame"},
		{"wrong frame type", "/v1/elect",
			wire.AppendBatchRequestFrame(nil, &wire.BatchRequest{Keys: []string{"k"}}),
			http.StatusBadRequest, "want elect-request"},
		{"trailing bytes", "/v1/elect",
			append(wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: "k"}), 'x'),
			http.StatusBadRequest, "trailing"},
		{"empty batch", "/v1/elect/batch",
			wire.AppendBatchRequestFrame(nil, &wire.BatchRequest{}),
			http.StatusBadRequest, "missing keys"},
		{"register without config", "/v1/register",
			wire.AppendRegisterRequestFrame(nil, &wire.RegisterRequest{Key: "k"}),
			http.StatusBadRequest, "missing config"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postBinary(t, ts, tc.path, tc.frame)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			typ, payload := readFrame(t, resp)
			var em wire.ErrorMessage
			if typ != wire.FrameError || em.DecodeFrom(payload) != nil {
				t.Fatalf("error response frame: %v", typ)
			}
			if !strings.Contains(em.Error, tc.substr) {
				t.Fatalf("error %q does not mention %q", em.Error, tc.substr)
			}
		})
	}
}

// TestBinaryRegisterAsync drives the 202 + poll flow over the binary
// encoding (the status poll endpoint stays JSON — it is a control-plane
// GET).
func TestBinaryRegisterAsync(t *testing.T) {
	_, ts := newTestServer(t)
	frame := wire.AppendRegisterRequestFrame(nil, &wire.RegisterRequest{
		Key: "async-bin", Config: config.StaggeredClique(7).Marshal(), Async: true,
	})
	resp := postBinary(t, ts, "/v1/register", frame)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	typ, payload := readFrame(t, resp)
	var rr wire.RegisterResponse
	if typ != wire.FrameRegisterResponse || rr.DecodeFrom(payload) != nil {
		t.Fatalf("response frame: %v", typ)
	}
	if rr.Status != "pending" || rr.StatusURL == "" {
		t.Fatalf("async response %+v", rr)
	}
	deadline := 200
	for ; deadline > 0; deadline-- {
		sresp, err := ts.Client().Get(ts.URL + rr.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		var st AdmissionStatusResponse
		decodeBody(t, sresp, &st)
		if st.State == "done" {
			break
		}
		if st.State == "failed" {
			t.Fatalf("async admission failed: %+v", st)
		}
	}
	if deadline == 0 {
		t.Fatal("async admission never completed")
	}
}

// resetWriter is a reusable ResponseWriter for the allocation pin.
type resetWriter struct {
	h      http.Header
	buf    bytes.Buffer
	status int
}

func (w *resetWriter) Header() http.Header         { return w.h }
func (w *resetWriter) WriteHeader(s int)           { w.status = s }
func (w *resetWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// TestWireElectHandlerAllocs pins the unbatched binary elect path to the
// PR's budget: at most 20 allocations per served request, end to end
// through the mux, instrumentation, frame decode, election, and frame
// encode.
func TestWireElectHandlerAllocs(t *testing.T) {
	reg := service.New(service.Options{Shards: 1})
	t.Cleanup(reg.Close)
	if err := reg.Register("k", config.StaggeredClique(12)); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Options{})
	h := srv.Handler()

	frame := wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: "k"})
	body := bytes.NewReader(frame)
	rc := io.NopCloser(body)
	req, err := http.NewRequest(http.MethodPost, "/v1/elect", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.ContentLength = int64(len(frame))
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
	allocs := testing.AllocsPerRun(200, run)
	if allocs > 20 {
		t.Fatalf("binary elect path allocates %.1f times per request, budget is 20", allocs)
	}
	t.Logf("binary elect path: %.1f allocs/op", allocs)
}

// benchElectServer boots an in-process server with one registered key for
// the wire benchmarks (no TCP — the benchmark isolates codec + handler +
// registry, the quantity compared against in-process Elect).
func benchElectServer(b *testing.B, keys int) (*Server, []string) {
	b.Helper()
	reg := service.New(service.Options{Shards: 4})
	b.Cleanup(reg.Close)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("cfg-%02d", i)
		if err := reg.Register(names[i], config.StaggeredClique(8+i%7)); err != nil {
			b.Fatal(err)
		}
	}
	return New(reg, Options{}), names
}

// BenchmarkWireServedElect measures one binary elect request through
// ServeHTTP — decode frame, elect, encode frame — with pooled codec state.
func BenchmarkWireServedElect(b *testing.B) {
	srv, names := benchElectServer(b, 1)
	h := srv.Handler()
	frame := wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: names[0]})
	body := bytes.NewReader(frame)
	rc := io.NopCloser(body)
	req, _ := http.NewRequest(http.MethodPost, "/v1/elect", nil)
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.ContentLength = int64(len(frame))
	w := &resetWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Seek(0, io.SeekStart)
		req.Body = rc
		w.buf.Reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkJSONServedElect is the same request over the JSON encoding —
// the baseline the wire path is measured against.
func BenchmarkJSONServedElect(b *testing.B) {
	srv, names := benchElectServer(b, 1)
	h := srv.Handler()
	payload := []byte(fmt.Sprintf(`{"key":%q}`, names[0]))
	body := bytes.NewReader(payload)
	rc := io.NopCloser(body)
	req, _ := http.NewRequest(http.MethodPost, "/v1/elect", nil)
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(len(payload))
	w := &resetWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Seek(0, io.SeekStart)
		req.Body = rc
		w.buf.Reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkWireServedElectBatch64 serves a 64-key binary batch per
// iteration — the configuration the "wire within 1.05x of in-process"
// target is measured at, against BenchmarkInProcessElectBatch64 (b.N counts
// batches; divide by 64 for per-election cost).
func BenchmarkWireServedElectBatch64(b *testing.B) {
	srv, names := benchElectServer(b, 8)
	h := srv.Handler()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = names[i%len(names)]
	}
	frame := wire.AppendBatchRequestFrame(nil, &wire.BatchRequest{Keys: keys})
	body := bytes.NewReader(frame)
	rc := io.NopCloser(body)
	req, _ := http.NewRequest(http.MethodPost, "/v1/elect/batch", nil)
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.ContentLength = int64(len(frame))
	w := &resetWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Seek(0, io.SeekStart)
		req.Body = rc
		w.buf.Reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkInProcessElectBatch64 is the floor the served batch is compared
// against: Registry.ElectBatch with a reused outcome slice.
func BenchmarkInProcessElectBatch64(b *testing.B) {
	srv, names := benchElectServer(b, 8)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = names[i%len(names)]
	}
	var outs []service.Outcome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		outs, err = srv.Registry().ElectBatch(keys, outs[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}
