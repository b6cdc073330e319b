package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/radio"
	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/golden from the daemon's answers")

// newGoldenNode boots a durable registry under a zero-fault plan, so its
// /v1/stats carries every block and field a node can serve (the wal
// directory and policy, fault_keys), and serves it over HTTP.
func newGoldenNode(t *testing.T) *httptest.Server {
	t.Helper()
	reg, _, err := service.Open(service.Options{
		Shards: 2,
		Fault:  &radio.FaultPlan{Seed: 1},
		WAL:    service.WALOptions{Dir: t.TempDir(), Sync: wal.SyncAlways},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	ts := httptest.NewServer(server.New(reg, server.Options{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestServeBodyGoldens pins the bodies of the serve path, in both
// encodings, at a daemon and at a router in front of two nodes: a sync
// and an async register, an elect, a batch with a failed slot, and one
// error answer, each against the bytes in testdata/golden; and the full
// JSON key set of each door's /v1/stats. A field whose JSON tag or frame
// position moves changes a body and fails the test. Run with -update to
// rewrite the files from the daemon's answers.
func TestServeBodyGoldens(t *testing.T) {
	daemon := newGoldenNode(t)
	urls := []string{newGoldenNode(t).URL, newGoldenNode(t).URL}
	f, err := New(urls, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(f, RouterOptions{})
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)

	const jsonType = "application/json"
	clique, path := config.StaggeredClique(5).Marshal(), config.StaggeredPath(6, 2).Marshal()
	registerJSON := func(key, cfg string, async bool) []byte {
		body, err := json.Marshal(map[string]any{"key": key, "config": cfg, "async": async})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	registerFrame := func(key, cfg string, async bool) []byte {
		return wire.AppendRegisterRequestFrame(nil, &wire.RegisterRequest{Key: key, Config: cfg, Async: async})
	}
	batch := []string{"g-0", "g-1", "absent"}
	steps := []struct {
		golden      string
		path        string
		contentType string
		body        []byte
		status      int
		await       string // a key whose async admission must finish first
	}{
		{"register.json", "/v1/register", jsonType, registerJSON("g-0", clique, false), http.StatusOK, ""},
		{"register.bin", "/v1/register", server.ContentTypeBinary, registerFrame("g-0", clique, false), http.StatusOK, ""},
		{"register-async.json", "/v1/register", jsonType, registerJSON("g-1", path, true), http.StatusAccepted, "g-1"},
		{"register-async.bin", "/v1/register", server.ContentTypeBinary, registerFrame("g-1", path, true), http.StatusAccepted, "g-1"},
		{"elect.json", "/v1/elect", jsonType, []byte(`{"key":"g-0"}`), http.StatusOK, ""},
		{"elect.bin", "/v1/elect", server.ContentTypeBinary, wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: "g-0"}), http.StatusOK, ""},
		{"batch.json", "/v1/elect/batch", jsonType, []byte(`{"keys":["g-0","g-1","absent"]}`), http.StatusOK, ""},
		{"batch.bin", "/v1/elect/batch", server.ContentTypeBinary, wire.AppendBatchRequestFrame(nil, &wire.BatchRequest{Keys: batch}), http.StatusOK, ""},
		{"error.json", "/v1/elect", jsonType, []byte(`{}`), http.StatusBadRequest, ""},
		{"error.bin", "/v1/elect", server.ContentTypeBinary, wire.AppendElectRequestFrame(nil, &wire.ElectRequest{}), http.StatusBadRequest, ""},
	}
	doors := []struct {
		name string
		ts   *httptest.Server
	}{{"daemon", daemon}, {"router", router}}
	for _, step := range steps {
		for _, door := range doors {
			resp, err := door.ts.Client().Post(door.ts.URL+step.path, step.contentType, bytes.NewReader(step.body))
			if err != nil {
				t.Fatalf("%s: POST %s: %v", door.name, step.path, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != step.status {
				t.Fatalf("%s: %s answered %d (%q), want %d", door.name, step.golden, resp.StatusCode, body, step.status)
			}
			checkGolden(t, door.name, step.golden, body, door.name == "daemon")
			if step.await != "" {
				awaitAdmission(t, door.ts, step.await)
			}
		}
	}
	for _, door := range doors {
		resp, err := door.ts.Client().Get(door.ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var v any
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding /v1/stats: %v", door.name, err)
		}
		keys := jsonKeySet(v, "", nil)
		slices.Sort(keys)
		keys = slices.Compact(keys)
		checkGolden(t, door.name, "stats-"+door.name+".keys", []byte(strings.Join(keys, "\n")+"\n"), true)
	}
}

// checkGolden compares got with testdata/golden/name, or writes it there
// under -update when write is set.
func checkGolden(t *testing.T, door, name string, got []byte, write bool) {
	t.Helper()
	file := filepath.Join("testdata", "golden", name)
	if *updateGoldens && write {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the body differs from %s:\n got %q\nwant %q", door, file, got, want)
	}
}

// awaitAdmission polls key's admission at a front door until it is done.
func awaitAdmission(t *testing.T, ts *httptest.Server, key string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st server.AdmissionStatusResponse
		routerGetJSON(t, ts, "/v1/register/status/"+key, &st)
		switch {
		case st.State == "done":
			return
		case st.State == "failed" || time.Now().After(deadline):
			t.Fatalf("admission of %s: %+v", key, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// jsonKeySet appends the path of every object key in v to keys: a.b for
// a nested object, a[].b for the objects of an array.
func jsonKeySet(v any, prefix string, keys []string) []string {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			keys = jsonKeySet(child, p, append(keys, p))
		}
	case []any:
		for _, child := range v {
			keys = jsonKeySet(child, prefix+"[]", keys)
		}
	}
	return keys
}
