// HTTP client: drive the election server end to end over its HTTP API.
//
// This example is the deployment story of the reproduction on the wire: it
// boots the HTTP election server in-process on a loopback listener (exactly
// what cmd/anonradiod serves), then talks to it purely over HTTP through the
// fleet client — the same client the fleet router and the CI smokes use —
// to register a configuration from its text encoding (synchronously and
// asynchronously with a polled admission status), serve single and batched
// elections, read the stats counters, and evict. It then snapshots the
// registry to disk and restores it into a second server, showing that the
// restored server answers bit-identically without recompiling anything, and
// finally ships one key's compiled artifact over the migration endpoints
// (GET /v1/artifact/{key} → POST /v1/admit/artifact) into a third, empty
// server — the primitive a fleet rebalance is built from.
//
// The client sends registrations, elections and batches as the binary wire
// encoding (application/x-anonradio-bin, length-prefixed CRC-checked
// frames); the restored server's cross-check posts the same election as
// JSON by hand, and the two encodings answer bit-identically.
//
// Run with:
//
//	go run ./examples/http-client
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"anonradio"
)

// boot starts an election server on a loopback listener and returns its
// base URL plus a stop function.
func boot(svc *anonradio.Service) (string, func(), error) {
	srv := anonradio.NewServer(svc, anonradio.ServerOptions{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go func() {
		if err := srv.Serve(l); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	stop := func() { _ = srv.Shutdown(context.Background()) }
	return "http://" + l.Addr().String(), stop, nil
}

// electJSON posts an elect request for key to base as JSON, by hand.
func electJSON(base, key string) (anonradio.WireOutcome, error) {
	var out anonradio.WireOutcome
	body, err := json.Marshal(anonradio.WireElectRequest{Key: key})
	if err != nil {
		return out, err
	}
	resp, err := http.Post(base+"/v1/elect", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("JSON elect of %s answered %s", key, resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func main() {
	svc := anonradio.NewService(anonradio.ServiceOptions{Shards: 2})
	defer svc.Close()
	base, stop, err := boot(svc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %s (encoding: %s)\n", base, anonradio.WireContentType)

	// One client; every call below goes through it. The client retries 429
	// (admission queue full) honoring Retry-After.
	client := anonradio.NewFleetClient(base, anonradio.FleetClientOptions{})

	// Register a fleet over HTTP: the configuration travels in its text
	// encoding (the same format cmd/genconfig writes and cmd/elect reads)
	// inside a binary register frame.
	keys := []string{}
	for n := 6; n <= 12; n += 3 {
		key := fmt.Sprintf("clique-%d", n)
		rr, err := client.Register(key, anonradio.StaggeredClique(n).Marshal())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %-10s (source=%s)\n", rr.Key, rr.Source)
		keys = append(keys, key)
	}

	// One election over HTTP.
	out, err := client.Elect(keys[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("elect %s: leader=%d rounds=%d\n", out.Key, out.Leader, out.Rounds)

	// A batch: one request, fanned out across the shards server-side.
	batch, err := client.ElectBatch(keys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch of %d: %d failures\n", len(batch.Outcomes), batch.Failures)
	for _, o := range batch.Outcomes {
		fmt.Printf("  %-10s leader=%d rounds=%d\n", o.Key, o.Leader, o.Rounds)
	}

	// Async admission: the server answers as soon as the build is queued on
	// its builder pool (a full queue would be 429 — backpressure), and the
	// admission is polled at /v1/register/status/{key} until it lands.
	if _, err := client.RegisterAsync("clique-20", anonradio.StaggeredClique(20).Marshal()); err != nil {
		log.Fatal(err)
	}
	var st anonradio.ServerAdmissionStatus
	for st.State != "done" && st.State != "failed" {
		if st, err = client.AdmissionStatus("clique-20"); err != nil {
			log.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("async admission of clique-20: %s\n", st.State)
	keys = append(keys, "clique-20")

	// The stats endpoint exposes registry counters and per-endpoint
	// request/latency counters.
	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats: %d configs, %d elections served\n", stats.Totals.Configs, stats.Totals.Elections)
	for _, ep := range stats.Endpoints {
		if ep.Requests > 0 {
			fmt.Printf("  %-24s %3d requests, mean %.0fµs\n", ep.Endpoint, ep.Requests, ep.MeanMicros)
		}
	}

	// Snapshot the live registry, restore into a fresh service, and serve
	// from a second server: the cold start loads every artifact instead of
	// reclassifying, and answers bit-identically.
	dir, err := os.MkdirTemp("", "anonradio-snapshot-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	manifest, err := anonradio.SnapshotService(svc, dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d entries in %s\n", len(manifest.Entries), dir)

	restored := anonradio.NewService(anonradio.ServiceOptions{Shards: 2})
	defer restored.Close()
	report, err := anonradio.RestoreService(restored, dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restore: %d entries (%d skipped)\n", report.Entries, len(report.Skipped))

	base2, stop2, err := boot(restored)
	if err != nil {
		log.Fatal(err)
	}
	// The cross-check deliberately uses JSON, the other encoding than the
	// client's frames: the two carry the same outcome bit for bit.
	out2, err := electJSON(base2, keys[0])
	if err != nil {
		log.Fatal(err)
	}
	agree := out2 == out
	fmt.Printf("restored server elects %s (cross-encoding): leader=%d rounds=%d (agrees with original: %v)\n",
		keys[0], out2.Leader, out2.Rounds, agree)
	if !agree {
		log.Fatal("restored server diverged from the original")
	}

	// Ship one key's compiled artifact into a third, empty server over the
	// migration endpoints — the primitive a fleet rebalance is built from.
	// The receiver loads the artifact instead of reclassifying: one
	// artifact load, identical answers.
	third := anonradio.NewService(anonradio.ServiceOptions{Shards: 1})
	defer third.Close()
	base3, stop3, err := boot(third)
	if err != nil {
		log.Fatal(err)
	}
	frame, err := client.FetchArtifact(keys[0])
	if err != nil {
		log.Fatal(err)
	}
	shipClient := anonradio.NewFleetClient(base3, anonradio.FleetClientOptions{})
	if _, err := shipClient.AdmitArtifact(frame); err != nil {
		log.Fatal(err)
	}
	out3, err := shipClient.Elect(keys[0])
	if err != nil {
		log.Fatal(err)
	}
	shipStats, err := shipClient.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shipped %s (%d bytes) to a fresh server: leader=%d rounds=%d, artifact_loads=%d (agrees: %v)\n",
		keys[0], len(frame), out3.Leader, out3.Rounds, shipStats.Admission.ArtifactLoads,
		out3.Leader == out.Leader && out3.Rounds == out.Rounds)
	if out3.Leader != out.Leader || out3.Rounds != out.Rounds {
		log.Fatal("shipped server diverged from the original")
	}

	// Evict over HTTP and confirm the 404.
	if err := client.Evict(keys[0]); err != nil {
		log.Fatal(err)
	}
	_, err = client.Elect(keys[0])
	fmt.Printf("evicted %s; electing it again fails: %v\n", keys[0], err != nil)

	stop()
	stop2()
	stop3()
}
