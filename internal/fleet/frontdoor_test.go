package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// TestFrontDoorCaseTable runs one table of front-door cases against a
// daemon and against a router in front of two nodes. Both serve /v1/*
// through the same handlers, and a router relays a node's answer with the
// node's own message, so every case answers the same status and the same
// bytes in the request's own encoding. The two phase-table cases register
// an earlier release's artifact, its table embedded, as written (200) and
// with one plan edited (422): the router's hop must carry the table to the
// node that checks it.
func TestFrontDoorCaseTable(t *testing.T) {
	const maxBody, maxBatch = 4096, 4
	reg := service.New(service.Options{Shards: 2})
	t.Cleanup(reg.Close)
	daemonHandler := server.New(reg, server.Options{MaxBodyBytes: maxBody, MaxBatchKeys: maxBatch}).Handler()
	daemon := httptest.NewServer(daemonHandler)
	t.Cleanup(daemon.Close)
	rt, _, router, _ := newTestRouter(t, 2, RouterOptions{MaxBodyBytes: maxBody, MaxBatchKeys: maxBatch})

	const jsonType = "application/json"
	cfg := config.StaggeredClique(5).Marshal()
	register := func(key, extra string) string {
		return fmt.Sprintf(`{"key":%q,"config":%q%s}`, key, cfg, extra)
	}
	huge := strings.Repeat("#", maxBody)
	eraText, era := jsonEraArtifact(t)
	eraJSON, err := os.ReadFile(filepath.Join("..", "service", "testdata", "json-era", "checkpoint", "0000.artifact.json"))
	if err != nil {
		t.Fatal(err)
	}
	era.PhaseTable.Plans[0].Block++
	edited, err := json.Marshal(wire.RegisterRequest{Key: "edited-table", Config: eraText, Artifact: era})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		path        string
		contentType string
		body        []byte
		status      int
	}{
		{"register", "/v1/register", jsonType, []byte(register("k", "")), http.StatusOK},
		{"typo'd field", "/v1/register", jsonType, []byte(register("typo", `,"artifcat":{}`)), http.StatusBadRequest},
		{"trailing object", "/v1/elect", jsonType, []byte(`{"key":"k"} {"key":"k"}`), http.StatusBadRequest},
		{"trailing garbage", "/v1/elect", jsonType, []byte(`{"key":"k"} x`), http.StatusBadRequest},
		{"trailing whitespace", "/v1/elect", jsonType, []byte("{\"key\":\"k\"} \n\t "), http.StatusOK},
		{"over-cap JSON", "/v1/register", jsonType, []byte(register("big", `,"async":false`+strings.Repeat(" ", maxBody))), http.StatusRequestEntityTooLarge},
		{"over-cap binary", "/v1/register", server.ContentTypeBinary,
			wire.AppendRegisterRequestFrame(nil, &wire.RegisterRequest{Key: "big", Config: cfg + huge}), http.StatusRequestEntityTooLarge},
		{"missing key", "/v1/elect", jsonType, []byte(`{}`), http.StatusBadRequest},
		{"missing key, binary", "/v1/elect", server.ContentTypeBinary,
			wire.AppendElectRequestFrame(nil, &wire.ElectRequest{}), http.StatusBadRequest},
		{"missing config", "/v1/register", jsonType, []byte(`{"key":"m"}`), http.StatusBadRequest},
		{"batch over MaxBatchKeys", "/v1/elect/batch", jsonType, []byte(`{"keys":["k","k","k","k","k"]}`), http.StatusBadRequest},
		{"JSON artifact admission", "/v1/admit/artifact", jsonType, []byte(`{}`), http.StatusUnsupportedMediaType},
		{"unknown key", "/v1/elect", jsonType, []byte(`{"key":"nope"}`), http.StatusNotFound},
		{"unknown key, binary", "/v1/elect", server.ContentTypeBinary,
			wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: "nope"}), http.StatusNotFound},
		{"earlier release's phase table", "/v1/register", jsonType,
			[]byte(fmt.Sprintf(`{"key":"table-era","config":%q,"artifact":%s}`, eraText, eraJSON)), http.StatusOK},
		{"earlier release's phase table, edited", "/v1/register", jsonType, edited, http.StatusUnprocessableEntity},
	}

	post := func(ts *httptest.Server, path, contentType string, body []byte) (int, string, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), data
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var bodies [2][]byte
			for i, door := range []*httptest.Server{daemon, router} {
				status, ct, body := post(door, tc.path, tc.contentType, tc.body)
				name := [2]string{"daemon", "router"}[i]
				if status != tc.status {
					t.Fatalf("%s answered %d (%s), want %d", name, status, body, tc.status)
				}
				if ct != tc.contentType {
					t.Fatalf("%s answered in %q, want the request's %q", name, ct, tc.contentType)
				}
				bodies[i] = body
			}
			if !bytes.Equal(bodies[0], bodies[1]) {
				t.Fatalf("the doors' answers differ:\ndaemon %q\nrouter %q", bodies[0], bodies[1])
			}
		})
	}

	// A declared Content-Length is not a body: a request that claims 2⁶²
	// bytes and carries a short elect is served like any other, without a
	// buffer sized to the claim. No client sends such a request, so the
	// handlers are called directly.
	for _, enc := range []struct {
		contentType string
		body        []byte
	}{
		{jsonType, []byte(`{"key":"k"}`)},
		{server.ContentTypeBinary, wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: "k"})},
	} {
		t.Run("declared length past the cap, "+enc.contentType, func(t *testing.T) {
			var bodies [2][]byte
			for i, h := range []http.Handler{daemonHandler, rt.Handler()} {
				req := httptest.NewRequest(http.MethodPost, "/v1/elect", bytes.NewReader(enc.body))
				req.Header.Set("Content-Type", enc.contentType)
				req.ContentLength = 1 << 62
				rec := httptest.NewRecorder()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				h.ServeHTTP(rec, req)
				runtime.ReadMemStats(&after)
				name := [2]string{"daemon", "router"}[i]
				if rec.Code != http.StatusOK {
					t.Fatalf("%s answered %d (%s), want 200", name, rec.Code, rec.Body)
				}
				if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
					t.Fatalf("%s allocated %d bytes for a %d-byte request", name, n, len(enc.body))
				}
				bodies[i] = rec.Body.Bytes()
			}
			if !bytes.Equal(bodies[0], bodies[1]) {
				t.Fatalf("the doors' answers differ:\ndaemon %q\nrouter %q", bodies[0], bodies[1])
			}
		})
	}
}

// TestRouterAsyncRegisterKeepsArtifact registers an artifact with its
// round bound edited, asynchronously, through the router. As a daemon
// does, the router must answer 202 with source "artifact", and the
// admission must end failed, naming the invalid artifact: the owning node
// loads the artifact instead of building the key from its configuration.
func TestRouterAsyncRegisterKeepsArtifact(t *testing.T) {
	_, _, ts, _ := newTestRouter(t, 2, RouterOptions{})
	cfg := config.StaggeredClique(5)
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tampered := d.Compile()
	tampered.RoundBound++

	resp := routerPostJSON(t, ts, "/v1/register", wire.RegisterRequest{
		Key: "tampered", Config: cfg.Marshal(), Artifact: tampered, Async: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("async register: status %d, want 202", resp.StatusCode)
	}
	var rr wire.RegisterResponse
	routerDecode(t, resp, &rr)
	if rr.Source != "artifact" || rr.Status != "pending" {
		t.Fatalf("async register answered %+v, want source artifact, status pending", rr)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st server.AdmissionStatusResponse
		routerGetJSON(t, ts, rr.StatusURL, &st)
		switch st.State {
		case "failed":
			if !strings.Contains(st.Error, election.ErrInvalidArtifact.Error()) {
				t.Fatalf("admission failed with %q, want the invalid artifact named", st.Error)
			}
			return
		case "done":
			t.Fatal("the tampered artifact was admitted: the node built the key instead of loading the artifact")
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission still %q after 10s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// capturingTransport records the body of every artifact admission the
// router forwards to a node.
type capturingTransport struct {
	mu     sync.Mutex
	admits [][]byte
}

func (c *capturingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/admit/artifact" && r.Body != nil {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.admits = append(c.admits, body)
		c.mu.Unlock()
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestRouterAdmitForwardsFrame admits, through the router, a WAL-admit
// frame an earlier release journaled, its phase table embedded (the first
// record of the table-era fixture's journal). The router must hand the
// owning node the frame it validated byte for byte, so the node's check of
// the embedded table runs on what the client sent, and the key serves.
func TestRouterAdmitForwardsFrame(t *testing.T) {
	var frame []byte
	if _, err := wal.Replay("../service/testdata/table-era", func(payload []byte) error {
		if typ, _, _, err := wire.DecodeFrame(payload); err == nil && typ == wire.FrameWALAdmit && frame == nil {
			frame = bytes.Clone(payload)
		}
		return nil
	}); err != nil || frame == nil {
		t.Fatalf("reading the table-era journal: %v", err)
	}
	_, payload, _, _ := wire.DecodeFrame(frame)
	var rec wire.WALAdmit
	if err := rec.DecodeFrom(payload); err != nil || rec.Artifact.PhaseTable == nil {
		t.Fatalf("the fixture's first admit carries no phase table: %v", err)
	}

	urls, _, _ := newTestNodes(t, 2)
	capture := &capturingTransport{}
	f, err := New(urls, ClientOptions{HTTP: &http.Client{Transport: capture}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRouter(f, RouterOptions{}).Handler())
	t.Cleanup(ts.Close)
	resp, err := ts.Client().Post(ts.URL+"/v1/admit/artifact", server.ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admitting %s through the router: status %d", rec.Key, resp.StatusCode)
	}
	if len(capture.admits) != 1 || !bytes.Equal(capture.admits[0], frame) {
		t.Fatalf("the router forwarded %d admissions; the frame it forwarded is not the one it received", len(capture.admits))
	}
	out, err := f.Elect(rec.Key)
	if err != nil || !out.Elected() {
		t.Fatalf("elect %s after the admission: %+v, %v", rec.Key, out, err)
	}
}
