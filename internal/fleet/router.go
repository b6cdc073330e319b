package fleet

import (
	"net/http"
	"sync"
	"time"

	"anonradio/internal/server"
)

// Router is the fleet's HTTP front door: it serves the same /v1/* surface a
// single anonradiod serves through the daemon's own handlers
// (server.Relay) — both encodings, strict decoding, the same status
// mapping, a node's answer relayed with its status — and routes every
// request to the owning node through the Fleet. Clients keep speaking the
// protocol they already speak; only the address changes. Only /v1/stats
// (the fleet aggregate) and /healthz (per-node probe state) are the
// router's own.
//
// The router also owns failure detection: a background probe loop polls
// every node's /healthz, and a node that misses ProbeFailures consecutive
// probes is declared lost — Fleet.DropNode re-registers its keys from the
// configuration cache onto the survivors, then swaps it out of the ring.
// Until the swap a lost key answers 502 (the dead node is unreachable),
// never a 404 for a key that exists.
// Keys owned by surviving nodes are untouched: their placement does not
// depend on the dead node (the rendezvous property), so their elections
// continue bit-identically through the loss.
type Router struct {
	fleet *Fleet
	mux   *http.ServeMux
	opts  RouterOptions

	mu    sync.Mutex
	fails map[string]int
	lost  map[string]bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// RouterOptions configure a Router; the zero value is ready to use.
type RouterOptions struct {
	// ProbeInterval is the /healthz polling cadence; <= 0 selects 1s.
	ProbeInterval time.Duration
	// ProbeFailures is how many consecutive probe failures declare a node
	// lost; <= 0 selects 3.
	ProbeFailures int
	// MaxBatchKeys caps one batch election request; <= 0 selects 8192,
	// the node-side default (server.Options).
	MaxBatchKeys int
	// MaxBodyBytes caps request bodies; <= 0 selects 32 MiB, the node-side
	// default.
	MaxBodyBytes int64
}

func (o RouterOptions) probeInterval() time.Duration {
	if o.ProbeInterval > 0 {
		return o.ProbeInterval
	}
	return time.Second
}

func (o RouterOptions) probeFailures() int {
	if o.ProbeFailures > 0 {
		return o.ProbeFailures
	}
	return 3
}

// NewRouter builds the front door over f. Call Start to begin health
// probing (optional — routing works without it, but node loss then goes
// unnoticed until requests fail) and Stop to halt it.
func NewRouter(f *Fleet, opts RouterOptions) *Router {
	rt := &Router{
		fleet: f,
		mux:   http.NewServeMux(),
		opts:  opts,
		fails: make(map[string]int),
		lost:  make(map[string]bool),
		stop:  make(chan struct{}),
	}
	server.Relay(rt.mux, f, server.Options{MaxBodyBytes: opts.MaxBodyBytes, MaxBatchKeys: opts.MaxBatchKeys})
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	return rt
}

// Handler returns the routing handler, ready for an http.Server.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Fleet returns the fleet the router routes over.
func (rt *Router) Fleet() *Fleet { return rt.fleet }

// Start launches the health-probe loop.
func (rt *Router) Start() {
	rt.wg.Add(1)
	go rt.probeLoop()
}

// Stop halts the probe loop (idempotent).
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.opts.probeInterval())
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeOnce()
		}
	}
}

// probeOnce polls every ring member's /healthz and drops nodes that missed
// ProbeFailures consecutive probes.
func (rt *Router) probeOnce() {
	for _, node := range rt.fleet.Ring().Nodes() {
		_, err := rt.fleet.client(node).Healthz()
		rt.mu.Lock()
		if err == nil {
			rt.fails[node] = 0
			rt.mu.Unlock()
			continue
		}
		rt.fails[node]++
		due := rt.fails[node] >= rt.opts.probeFailures() && !rt.lost[node]
		if due {
			rt.lost[node] = true
		}
		rt.mu.Unlock()
		if due && rt.fleet.Ring().Len() > 1 {
			// Best-effort: a failed recovery (e.g. a survivor rejects a
			// re-registration) is visible in the next /healthz body; the
			// ring swap itself cannot fail.
			_, _ = rt.fleet.DropNode(node)
		}
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, rt.fleet.Stats())
}

// NodeHealth is one node's row in the router's /healthz body.
type NodeHealth struct {
	// Node is the node's base URL.
	Node string `json:"node"`
	// Healthy reports the most recent probe's verdict.
	Healthy bool `json:"healthy"`
	// ConsecutiveFailures counts probe failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Lost reports whether the node was dropped from the ring.
	Lost bool `json:"lost,omitempty"`
}

// RouterHealth is the body of the router's GET /healthz.
type RouterHealth struct {
	// Status is "ok" while at least one node is in the ring.
	Status string `json:"status"`
	// Nodes holds one row per current ring member plus any dropped nodes.
	Nodes []NodeHealth `json:"nodes"`
	// CachedKeys is the size of the fleet's configuration cache.
	CachedKeys int `json:"cached_keys"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	ring := rt.fleet.Ring()
	rt.mu.Lock()
	h := RouterHealth{Status: "ok"}
	for _, node := range ring.Nodes() {
		h.Nodes = append(h.Nodes, NodeHealth{
			Node:                node,
			Healthy:             rt.fails[node] == 0,
			ConsecutiveFailures: rt.fails[node],
		})
	}
	for node, lost := range rt.lost {
		if lost && !ring.Contains(node) {
			h.Nodes = append(h.Nodes, NodeHealth{Node: node, Lost: true, ConsecutiveFailures: rt.fails[node]})
		}
	}
	rt.mu.Unlock()
	rt.fleet.mu.RLock()
	h.CachedKeys = len(rt.fleet.configs)
	rt.fleet.mu.RUnlock()
	server.WriteJSON(w, http.StatusOK, h)
}
