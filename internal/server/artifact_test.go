package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/history"
	"anonradio/internal/radio"
	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// getRaw fetches path without decoding, for binary responses.
func getRaw(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp
}

// TestArtifactShipBetweenServers is the HTTP half of the fleet migration
// acceptance criterion: a compiled key exported from one server, with no
// phase table and no digest, and admitted on another via
// POST /v1/admit/artifact serves bit-identical elections, and the
// receiver's artifact_loads counter proves no classifier run happened.
func TestArtifactShipBetweenServers(t *testing.T) {
	_, src := newTestServer(t)

	dstReg := service.New(service.Options{Shards: 2})
	t.Cleanup(dstReg.Close)
	dst := httptest.NewServer(New(dstReg, Options{}).Handler())
	t.Cleanup(dst.Close)

	shipped := 0
	for key := range testConfigs() {
		resp := getRaw(t, src, "/v1/artifact/"+key)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("export %s: status %d", key, resp.StatusCode)
		}
		typ, payload := readFrame(t, resp)
		if typ != wire.FrameWALAdmit {
			t.Fatalf("export %s: frame %v, want WAL-admit", key, typ)
		}
		var rec wire.WALAdmit
		if err := rec.DecodeFrom(payload); err != nil {
			t.Fatalf("export %s: decoding record: %v", key, err)
		}
		if rec.Key != key || rec.Artifact == nil {
			t.Fatalf("export %s: incomplete record %+v", key, rec.Key)
		}
		if rec.Artifact.PhaseTable != nil || rec.Artifact.ArtifactDigest != "" {
			t.Fatalf("export %s: the artifact carries a phase table or a digest", key)
		}

		frame := wire.AppendWALAdmitFrame(nil, &rec)
		admitResp := postBinary(t, dst, "/v1/admit/artifact", frame)
		if admitResp.StatusCode != http.StatusOK {
			t.Fatalf("admit %s: status %d", key, admitResp.StatusCode)
		}
		typ, payload = readFrame(t, admitResp)
		var rr wire.RegisterResponse
		if typ != wire.FrameRegisterResponse || rr.DecodeFrom(payload) != nil {
			t.Fatalf("admit %s: frame %v", key, typ)
		}
		if rr.Key != key || rr.Source != "artifact" || rr.Status != "admitted" {
			t.Fatalf("admit %s: %+v", key, rr)
		}
		shipped++
	}

	// No classifier run: every admission on the receiver was an artifact
	// load.
	var stats StatsResponse
	if resp := getJSON(t, dst, "/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if stats.Admission.ArtifactLoads != int64(shipped) {
		t.Fatalf("artifact_loads = %d after %d shipped admissions, want %d",
			stats.Admission.ArtifactLoads, shipped, shipped)
	}

	// Bit-identical elections on both sides.
	for key := range testConfigs() {
		var want, got wire.Outcome
		if resp := postJSON(t, src, "/v1/elect", wire.ElectRequest{Key: key}); resp.StatusCode != http.StatusOK {
			t.Fatalf("source elect %s: status %d", key, resp.StatusCode)
		} else {
			decodeBody(t, resp, &want)
		}
		if resp := postJSON(t, dst, "/v1/elect", wire.ElectRequest{Key: key}); resp.StatusCode != http.StatusOK {
			t.Fatalf("dest elect %s: status %d", key, resp.StatusCode)
		} else {
			decodeBody(t, resp, &got)
		}
		if got.Leader != want.Leader || got.Rounds != want.Rounds {
			t.Fatalf("%s: shipped outcome (%d, %d) != source outcome (%d, %d)",
				key, got.Leader, got.Rounds, want.Leader, want.Rounds)
		}
	}
}

// TestArtifactEndpointErrors pins the failure surface of the two artifact
// endpoints: unknown keys 404, JSON bodies on the binary-only admit endpoint
// 415, and malformed frames 400.
func TestArtifactEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)

	resp := getRaw(t, ts, "/v1/artifact/absent")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("export of unknown key: status %d, want 404", resp.StatusCode)
	}

	resp = postJSON(t, ts, "/v1/admit/artifact", map[string]string{"key": "x"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON admit: status %d, want 415", resp.StatusCode)
	}

	resp = postBinary(t, ts, "/v1/admit/artifact", []byte{0xde, 0xad, 0xbe, 0xef})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage admit: status %d, want 400", resp.StatusCode)
	}

	// A structurally valid frame of the wrong type is still a bad request.
	frame := wire.AppendRegisterRequestFrame(nil, &wire.RegisterRequest{Key: "k", Config: config.StaggeredClique(4).Marshal()})
	resp = postBinary(t, ts, "/v1/admit/artifact", frame)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-frame admit: status %d, want 400", resp.StatusCode)
	}
}

// TestStatsFaultKeys pins the fault_keys stats rows: a server over a faulted
// registry reports one row per key with election counts, while a clean
// server omits the field entirely.
func TestStatsFaultKeys(t *testing.T) {
	reg := service.New(service.Options{
		Shards: 2,
		Fault:  &radio.FaultPlan{Seed: 11, Drop: 0.15, Noise: 0.05},
	})
	t.Cleanup(reg.Close)
	ts := httptest.NewServer(New(reg, Options{}).Handler())
	t.Cleanup(ts.Close)

	for _, key := range []string{"fa", "fb"} {
		if err := reg.Register(key, config.StaggeredClique(8)); err != nil {
			t.Fatalf("register %s: %v", key, err)
		}
	}
	for i := 0; i < 2; i++ {
		for _, key := range []string{"fa", "fb"} {
			resp := postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: key})
			resp.Body.Close() // a faulted election may fail; counters still move
		}
	}

	var stats StatsResponse
	if resp := getJSON(t, ts, "/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if len(stats.FaultKeys) != 2 {
		t.Fatalf("fault_keys has %d rows, want 2: %+v", len(stats.FaultKeys), stats.FaultKeys)
	}
	for _, fk := range stats.FaultKeys {
		if fk.Key != "fa" && fk.Key != "fb" {
			t.Fatalf("unexpected fault row key %q", fk.Key)
		}
		if fk.Elections < 1 {
			t.Fatalf("%s: no elections accounted: %+v", fk.Key, fk)
		}
	}

	_, clean := newTestServer(t)
	var cleanStats StatsResponse
	getJSON(t, clean, "/v1/stats", &cleanStats)
	if cleanStats.FaultKeys != nil {
		t.Fatalf("clean server reports fault_keys: %+v", cleanStats.FaultKeys)
	}
}

// TestRegisterInvalidArtifact422 registers tampered artifacts on all three
// paths that admit one: the JSON register, the binary register and
// POST /v1/admit/artifact. Every one answers 422 naming the invalid
// artifact, the daemon stays healthy, and the untouched artifact then
// registers with 200 on each path and elects its leader. The first three
// cases used to register with 200 and then fail every election with 500.
// The phase-table case attaches an edited copy of the compiled table, as an
// artifact of an earlier release carries one; it runs over JSON only,
// because the binary encoder writes no table.
func TestRegisterInvalidArtifact422(t *testing.T) {
	_, ts := newTestServer(t)
	cfg := config.LineFamilyG(3)
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tampered := []struct {
		name     string
		tamper   func(c *election.Compiled)
		jsonOnly bool
	}{
		{"round bound 3", func(c *election.Compiled) { c.RoundBound = 3 }, false},
		{"leader history one entry short", func(c *election.Compiled) { c.LeaderHistory = c.LeaderHistory[:len(c.LeaderHistory)-1] }, false},
		{"leader history message 2", func(c *election.Compiled) { c.LeaderHistory[1] = history.Received("2") }, false},
		{"local rounds", func(c *election.Compiled) { c.LocalRounds++ }, false},
		{"empty leader history", func(c *election.Compiled) { c.LeaderHistory = nil }, false},
		{"phase table disagrees with the lists", func(c *election.Compiled) {
			c.PhaseTable = cloneTable(t, d.DRIP.Table())
			c.PhaseTable.Matches[0].Rows[0].Expect[0] ^= 1
		}, true},
		{"leader out of range", func(c *election.Compiled) { c.ExpectedLeader = cfg.N() }, false},
		{"span mismatch", func(c *election.Compiled) { c.Blueprint.Sigma++ }, false},
	}
	register := []struct {
		name string
		post func(key string, c *election.Compiled) (int, string)
	}{
		{"json", func(key string, c *election.Compiled) (int, string) {
			resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: key, Config: cfg.Marshal(), Artifact: c})
			var e wire.ErrorMessage
			decodeBody(t, resp, &e)
			return resp.StatusCode, e.Error
		}},
		{"binary", func(key string, c *election.Compiled) (int, string) {
			return postFrame(t, ts, "/v1/register", wire.AppendRegisterRequestFrame(nil, &wire.RegisterRequest{Key: key, Config: cfg.Marshal(), Artifact: c}))
		}},
		{"admit", func(key string, c *election.Compiled) (int, string) {
			frame := wire.AppendWALAdmitFrame(nil, &wire.WALAdmit{Key: key, Config: cfg.Marshal(), Artifact: c})
			return postFrame(t, ts, "/v1/admit/artifact", frame)
		}},
	}
	for _, tc := range tampered {
		for _, r := range register {
			if tc.jsonOnly && r.name != "json" {
				continue
			}
			c := d.Compile()
			c.LeaderHistory = slices.Clone(c.LeaderHistory)
			tc.tamper(c)
			status, msg := r.post("tampered", c)
			if status != http.StatusUnprocessableEntity || !strings.Contains(msg, "invalid artifact") {
				t.Fatalf("%s over %s: status %d, error %q; want 422 naming the invalid artifact", tc.name, r.name, status, msg)
			}
		}
	}
	health, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the rejected registers: status %d", health.StatusCode)
	}
	for _, r := range register {
		key := "clean-" + r.name
		if status, msg := r.post(key, d.Compile()); status != http.StatusOK {
			t.Fatalf("untouched artifact over %s: status %d, %q", r.name, status, msg)
		}
		resp := postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: key})
		var out wire.Outcome
		decodeBody(t, resp, &out)
		if resp.StatusCode != http.StatusOK || !out.Elected || out.Leader != d.ExpectedLeader {
			t.Fatalf("%s: elect status %d, %+v; want leader %d", key, resp.StatusCode, out, d.ExpectedLeader)
		}
	}
}

// postFrame posts a binary frame and returns the status with the error
// frame's message, or "" for any other answer.
func postFrame(t *testing.T, ts *httptest.Server, path string, frame []byte) (int, string) {
	t.Helper()
	resp := postBinary(t, ts, path, frame)
	typ, payload := readFrame(t, resp)
	var em wire.ErrorMessage
	if typ == wire.FrameError && em.DecodeFrom(payload) == nil {
		return resp.StatusCode, em.Error
	}
	return resp.StatusCode, ""
}

// cloneTable deep-copies a phase table through JSON, so a test can tamper
// with it without touching the algorithm that compiled it.
func cloneTable(t *testing.T, pt *canonical.PhaseTable) *canonical.PhaseTable {
	t.Helper()
	data, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	var c canonical.PhaseTable
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// TestRegisterJSONEraArtifact registers an artifact an earlier release
// wrote, with its phase table and digest (the JSON-era checkpoint of
// internal/service/testdata): as written it answers 200 and elects leader 0
// in 15 rounds, as its fixture's README records; with one plan of its
// table edited it answers 422, although its digest is untouched.
func TestRegisterJSONEraArtifact(t *testing.T) {
	_, ts := newTestServer(t)
	dir := filepath.Join("..", "service", "testdata", "json-era", "checkpoint")
	text, err := os.ReadFile(filepath.Join(dir, "0000.config.txt"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "0000.artifact.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []bool{false, true} {
		c, err := election.UnmarshalCompiled(data)
		if err != nil {
			t.Fatal(err)
		}
		if c.PhaseTable == nil || c.ArtifactDigest == "" {
			t.Fatal("the JSON-era artifact has no phase table or no digest")
		}
		if edit {
			c.PhaseTable.Plans[0].Block++
		}
		resp := postJSON(t, ts, "/v1/register", wire.RegisterRequest{Key: "era", Config: string(text), Artifact: c})
		if edit {
			var e wire.ErrorMessage
			decodeBody(t, resp, &e)
			if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "phase table") {
				t.Fatalf("edited table: status %d, %q; want 422 naming the phase table", resp.StatusCode, e.Error)
			}
			continue
		}
		var rr wire.RegisterResponse
		decodeBody(t, resp, &rr)
		if resp.StatusCode != http.StatusOK || rr.Source != "artifact" {
			t.Fatalf("register: status %d, %+v", resp.StatusCode, rr)
		}
		var out wire.Outcome
		decodeBody(t, postJSON(t, ts, "/v1/elect", wire.ElectRequest{Key: "era"}), &out)
		if !out.Elected || out.Leader != 0 || out.Rounds != 15 {
			t.Fatalf("elect: %+v, want leader 0 in 15 rounds", out)
		}
	}
}
