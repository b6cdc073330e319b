// Command anonradio-router is the fleet front door: a thin HTTP daemon
// that exposes the same /v1/* API a single anonradiod serves, over a set
// of nodes, with per-key routing by rendezvous hashing (internal/fleet).
//
// The router holds no election state. It decides which node owns each key
// (a pure function of the node list, so every router replica routes
// identically), serves the /v1/* routes through anonradiod's own handlers
// in the client's own encoding (JSON or the binary wire protocol), splits
// batch elections per owning node and reassembles the outcomes in
// submission order, and aggregates /v1/stats across the fleet. It sends
// register, elect and batch to the nodes as binary wire frames; a register
// whose artifact embeds an earlier release's phase table goes as JSON, the
// one encoding that carries the table the node checks. A node's error
// answer is relayed with the node's status and message. Registrations
// refused with 429 by a node's admission queue are retried per
// -busy-retries, honoring the node's Retry-After.
//
// A background probe loop polls every node's /healthz; a node that misses
// -probe-failures consecutive probes is dropped from the ring and its keys
// are re-registered from the router's configuration cache onto the
// surviving nodes. Keys owned by survivors keep their placement (the
// rendezvous property) and their elections continue bit-identically.
//
// Usage:
//
//	anonradio-router -nodes http://h1:8080,http://h2:8080,http://h3:8080
//	                 [-listen :8090] [-busy-retries 3]
//	                 [-probe-interval 1s] [-probe-failures 3]
//	                 [-max-batch 8192] [-shutdown-timeout 10s]
//
// See docs/SERVER.md for the fleet section of the API reference.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"anonradio/internal/fleet"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		listen          = flag.String("listen", ":8090", "listen address")
		nodes           = flag.String("nodes", "", "comma-separated node base URLs (e.g. http://h1:8080,http://h2:8080); required")
		busyRetries     = flag.Int("busy-retries", 3, "extra attempts for requests a node refuses with 429 (admission queue full), each honoring the node's Retry-After")
		maxRetryAfter   = flag.Duration("max-retry-after", 2*time.Second, "cap on the per-attempt Retry-After sleep")
		probeInterval   = flag.Duration("probe-interval", time.Second, "node /healthz polling cadence")
		probeFailures   = flag.Int("probe-failures", 3, "consecutive probe failures before a node is declared lost and its keys are re-registered onto the survivors")
		maxBatch        = flag.Int("max-batch", 0, "largest accepted /v1/elect/batch key count (0 = default 8192)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "how long a graceful shutdown may wait for in-flight requests")
	)
	flag.Parse()
	log.SetPrefix("anonradio-router: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	var nodeList []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, n)
		}
	}
	if len(nodeList) == 0 {
		log.Print("-nodes is required (comma-separated node base URLs)")
		return 2
	}

	f, err := fleet.New(nodeList, fleet.ClientOptions{
		BusyRetries:   *busyRetries,
		MaxRetryAfter: *maxRetryAfter,
	})
	if err != nil {
		log.Printf("building fleet: %v", err)
		return 2
	}
	rt := fleet.NewRouter(f, fleet.RouterOptions{
		ProbeInterval: *probeInterval,
		ProbeFailures: *probeFailures,
		MaxBatchKeys:  *maxBatch,
	})
	rt.Start()
	defer rt.Stop()

	srv := &http.Server{Addr: *listen, Handler: rt.Handler(), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	log.Printf("routing %d nodes on %s (probe every %s, drop after %d misses)",
		len(nodeList), *listen, *probeInterval, *probeFailures)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		log.Printf("received %s; draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Printf("shutdown: %v (continuing)", err)
		}
		if err := <-done; err != nil && err != http.ErrServerClosed {
			log.Printf("serve: %v", err)
		}
	case err := <-done:
		log.Printf("serve: %v", err)
		return 1
	}
	log.Print("bye")
	return 0
}
