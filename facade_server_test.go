package anonradio_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"anonradio"
)

// TestFacadeServerAndSnapshot drives the facade's serving surface end to
// end: NewServer over a NewService, one HTTP election, SnapshotService,
// RestoreService into a fresh service, and agreement between the served
// and restored outcomes.
func TestFacadeServerAndSnapshot(t *testing.T) {
	svc := anonradio.NewService(anonradio.ServiceOptions{Shards: 2})
	defer svc.Close()
	cfg := anonradio.StaggeredClique(7)
	if err := svc.Register("demo", cfg); err != nil {
		t.Fatalf("register: %v", err)
	}

	srv := anonradio.NewServer(svc, anonradio.ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]string{"key": "demo"})
	resp, err := ts.Client().Post(ts.URL+"/v1/elect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/elect: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		Elected bool `json:"elected"`
		Leader  int  `json:"leader"`
		Rounds  int  `json:"rounds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	direct, err := svc.Elect("demo")
	if err != nil {
		t.Fatalf("in-process elect: %v", err)
	}
	if !out.Elected || out.Leader != direct.Leader || out.Rounds != direct.Rounds {
		t.Fatalf("served %+v, in-process %+v", out, direct)
	}

	dir := t.TempDir()
	manifest, err := anonradio.SnapshotService(svc, dir)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(manifest.Entries) != 1 || manifest.Entries[0].Key != "demo" {
		t.Fatalf("manifest: %+v", manifest)
	}
	restored := anonradio.NewService(anonradio.ServiceOptions{Shards: 1})
	defer restored.Close()
	report, err := anonradio.RestoreService(restored, dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if report.Entries != 1 || len(report.Skipped) != 0 {
		t.Fatalf("restore report: %+v", report)
	}
	again, err := restored.Elect("demo")
	if err != nil || again.Leader != direct.Leader || again.Rounds != direct.Rounds {
		t.Fatalf("restored elect: %v %+v, want %+v", err, again, direct)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
