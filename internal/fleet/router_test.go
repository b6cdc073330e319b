package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// routerPostJSON posts a JSON body to the router under test.
func routerPostJSON(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal %s: %v", path, err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp
}

func routerDecode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func routerGetJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	routerDecode(t, resp, v)
	return resp
}

// newTestRouter wires a fleet over n nodes behind a Router and serves it.
func newTestRouter(t *testing.T, n int, ropts RouterOptions) (*Router, *Fleet, *httptest.Server, map[string]*httptest.Server) {
	t.Helper()
	urls, _, servers := newTestNodes(t, n)
	f, err := New(urls, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(f, ropts)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, f, ts, servers
}

// TestRouterFrontDoorParity drives the full /v1/* surface through the
// router in both encodings and pins that answers match direct fleet calls:
// the front door adds routing, not behavior.
func TestRouterFrontDoorParity(t *testing.T) {
	_, f, ts, _ := newTestRouter(t, 3, RouterOptions{})

	keys := fleetKeys(8)
	for i, key := range keys {
		var rr wire.RegisterResponse
		resp := routerPostJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: key, Config: cfgFor(i).Marshal()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s via router: status %d", key, resp.StatusCode)
		}
		routerDecode(t, resp, &rr)
		if rr.Key != key || rr.Status != "admitted" {
			t.Fatalf("register %s via router: %+v", key, rr)
		}
	}

	for _, key := range keys {
		direct, err := f.Elect(key)
		if err != nil {
			t.Fatalf("direct elect %s: %v", key, err)
		}

		var routed wire.Outcome
		resp := routerPostJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: key})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed elect %s: status %d", key, resp.StatusCode)
		}
		routerDecode(t, resp, &routed)
		if routed.Leader != direct.Leader || routed.Rounds != direct.Rounds {
			t.Fatalf("%s: routed JSON (%d, %d) != direct (%d, %d)",
				key, routed.Leader, routed.Rounds, direct.Leader, direct.Rounds)
		}

		// Same election over the binary wire encoding.
		frame := wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: key})
		bresp, err := ts.Client().Post(ts.URL+"/v1/elect", server.ContentTypeBinary, bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("binary elect %s: %v", key, err)
		}
		body := make([]byte, 0, 256)
		buf := bytes.NewBuffer(body)
		if _, err := buf.ReadFrom(bresp.Body); err != nil {
			t.Fatalf("reading binary elect %s: %v", key, err)
		}
		bresp.Body.Close()
		if bresp.StatusCode != http.StatusOK {
			t.Fatalf("binary elect %s: status %d", key, bresp.StatusCode)
		}
		typ, payload, rest, err := wire.DecodeFrame(buf.Bytes())
		if err != nil || typ != wire.FrameOutcome || len(rest) != 0 {
			t.Fatalf("binary elect %s: frame typ=%v err=%v", key, typ, err)
		}
		var wout wire.Outcome
		if err := wout.DecodeFrom(payload); err != nil {
			t.Fatalf("binary elect %s: %v", key, err)
		}
		if wout.Leader != direct.Leader || wout.Rounds != direct.Rounds {
			t.Fatalf("%s: routed binary (%d, %d) != direct (%d, %d)",
				key, wout.Leader, wout.Rounds, direct.Leader, direct.Rounds)
		}
	}

	// Batch through the router preserves submission order.
	var batch wire.BatchResponse
	resp := routerPostJSON(t, ts, "/v1/elect/batch", wire.BatchRequest{Keys: keys})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed batch: status %d", resp.StatusCode)
	}
	routerDecode(t, resp, &batch)
	if len(batch.Outcomes) != len(keys) || batch.Failures != 0 {
		t.Fatalf("routed batch: %d outcomes, %d failures", len(batch.Outcomes), batch.Failures)
	}
	for i, key := range keys {
		if batch.Outcomes[i].Key != key {
			t.Fatalf("routed batch slot %d holds %q, want %q", i, batch.Outcomes[i].Key, key)
		}
	}

	// Fleet-aggregated stats: one row per node, totals folded, every
	// registered key cached for recovery.
	var stats StatsResponse
	routerGetJSON(t, ts, "/v1/stats", &stats)
	if len(stats.Nodes) != 3 {
		t.Fatalf("stats rows for %d nodes, want 3", len(stats.Nodes))
	}
	if stats.Totals.Elections == 0 {
		t.Fatal("aggregated totals show no elections after serving elections")
	}
	if stats.CachedKeys != len(keys) {
		t.Fatalf("cached keys = %d, want %d", stats.CachedKeys, len(keys))
	}

	// Router health reports every ring member.
	var health RouterHealth
	routerGetJSON(t, ts, "/healthz", &health)
	if health.Status != "ok" || len(health.Nodes) != 3 || health.CachedKeys != len(keys) {
		t.Fatalf("router health: %+v", health)
	}

	// Eviction routes to the owner; a re-elect then 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/configs/"+keys[0], nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("routed evict: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("routed evict: status %d", dresp.StatusCode)
	}
	eresp := routerPostJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: keys[0]})
	eresp.Body.Close()
	if eresp.StatusCode != http.StatusNotFound {
		t.Fatalf("elect after evict: status %d, want 404", eresp.StatusCode)
	}
}

// TestRouterProbeDropsDeadNode kills one of three nodes under a running
// probe loop and waits for the router to declare it lost, re-register its
// keys onto the survivors, and keep serving every key.
func TestRouterProbeDropsDeadNode(t *testing.T) {
	rt, f, ts, servers := newTestRouter(t, 3, RouterOptions{
		ProbeInterval: 25 * time.Millisecond,
		ProbeFailures: 2,
	})
	rt.Start()
	t.Cleanup(rt.Stop)

	keys := fleetKeys(12)
	for i, key := range keys {
		resp := routerPostJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: key, Config: cfgFor(i).Marshal()})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: status %d", key, resp.StatusCode)
		}
	}
	before := make(map[string]service.Outcome, len(keys))
	for _, key := range keys {
		out, err := f.Elect(key)
		if err != nil {
			t.Fatalf("pre-loss elect %s: %v", key, err)
		}
		before[key] = out
	}

	lost := f.Owner(keys[0])
	servers[lost].Close()

	deadline := time.Now().Add(10 * time.Second)
	for f.Ring().Contains(lost) {
		if time.Now().After(deadline) {
			t.Fatalf("probe loop never dropped the dead node %s", lost)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var health RouterHealth
	routerGetJSON(t, ts, "/healthz", &health)
	foundLost := false
	for _, n := range health.Nodes {
		if n.Node == lost && n.Lost {
			foundLost = true
		}
	}
	if !foundLost {
		t.Fatalf("health does not report the dropped node: %+v", health)
	}

	for _, key := range keys {
		var out wire.Outcome
		resp := routerPostJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: key})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-loss routed elect %s: status %d", key, resp.StatusCode)
		}
		routerDecode(t, resp, &out)
		if want := before[key]; out.Leader != want.Leader || out.Rounds != want.Rounds {
			t.Fatalf("%s: outcome changed across node loss: (%d, %d) -> (%d, %d)",
				key, want.Leader, want.Rounds, out.Leader, out.Rounds)
		}
	}
}

// TestRouterUnreachableNodeNamesNoAddress closes one of two nodes and pins
// that what the router answers for the keys it owns names no node address:
// a routed elect answers 502 in either encoding, and a routed batch puts an
// error in the lost node's slots while the survivor's keys elect.
func TestRouterUnreachableNodeNamesNoAddress(t *testing.T) {
	_, f, ts, servers := newTestRouter(t, 2, RouterOptions{})
	keys := fleetKeys(16)
	for i, key := range keys {
		resp := routerPostJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: key, Config: cfgFor(i).Marshal()})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: status %d", key, resp.StatusCode)
		}
	}
	lost := f.Owner(keys[0])
	servers[lost].Close()
	host := strings.TrimPrefix(lost, "http://")
	named := func(what, text string) {
		t.Helper()
		if text == "" || strings.Contains(text, host) {
			t.Fatalf("%s: %q is empty or names the node %s", what, text, host)
		}
	}

	var er wire.ErrorMessage
	resp := routerPostJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: keys[0]})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("JSON elect on the lost node: status %d, want 502", resp.StatusCode)
	}
	routerDecode(t, resp, &er)
	named("JSON elect", er.Error)

	frame := wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: keys[0]})
	bresp, err := ts.Client().Post(ts.URL+"/v1/elect", server.ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if err != nil || bresp.StatusCode != http.StatusBadGateway {
		t.Fatalf("binary elect on the lost node: status %d, %v, want 502", bresp.StatusCode, err)
	}
	typ, payload, _, err := wire.DecodeFrame(body)
	if err != nil || typ != wire.FrameError {
		t.Fatalf("binary elect on the lost node: frame %v, %v", typ, err)
	}
	if err := er.DecodeFrom(payload); err != nil {
		t.Fatal(err)
	}
	named("binary elect", er.Error)

	var batch wire.BatchResponse
	resp = routerPostJSON(t, ts, "/v1/elect/batch", wire.BatchRequest{Keys: keys})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	routerDecode(t, resp, &batch)
	if len(batch.Outcomes) != len(keys) {
		t.Fatalf("batch answered %d outcomes for %d keys", len(batch.Outcomes), len(keys))
	}
	for i, out := range batch.Outcomes {
		if f.Owner(keys[i]) == lost {
			if out.Elected {
				t.Fatalf("%s on the lost node elected: %+v", keys[i], out)
			}
			named("batch slot "+keys[i], out.Error)
		} else if !out.Elected {
			t.Fatalf("%s on the surviving node: %+v", keys[i], out)
		}
	}
}
