package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/server"
	"anonradio/internal/wire"
)

// Router is the fleet's HTTP front door: it exposes the same /v1/* surface
// a single anonradiod serves — both encodings, same status mapping — and
// routes every request to the owning node through the Fleet. Clients keep
// speaking the protocol they already speak; only the address changes.
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
	// matching the node-side default.
	MaxBatchKeys int
	// MaxBodyBytes caps request bodies; <= 0 selects 32 MiB.
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
	if opts.MaxBatchKeys <= 0 {
		opts.MaxBatchKeys = 8192
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 32 << 20
	}
	rt := &Router{
		fleet: f,
		mux:   http.NewServeMux(),
		opts:  opts,
		fails: make(map[string]int),
		lost:  make(map[string]bool),
		stop:  make(chan struct{}),
	}
	rt.mux.HandleFunc("POST /v1/register", rt.capped(rt.handleRegister))
	rt.mux.HandleFunc("GET /v1/register/status/{key...}", rt.handleRegisterStatus)
	rt.mux.HandleFunc("POST /v1/elect", rt.capped(rt.handleElect))
	rt.mux.HandleFunc("POST /v1/elect/batch", rt.capped(rt.handleElectBatch))
	rt.mux.HandleFunc("DELETE /v1/configs/{key...}", rt.handleEvict)
	rt.mux.HandleFunc("GET /v1/artifact/{key...}", rt.handleArtifactExport)
	rt.mux.HandleFunc("POST /v1/admit/artifact", rt.capped(rt.handleAdmitArtifact))
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

// capped wraps a handler with the request-body cap.
func (rt *Router) capped(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, rt.opts.MaxBodyBytes)
		}
		h(w, r)
	}
}

func writeRouterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeRouterFrame(w http.ResponseWriter, status int, frame []byte) {
	w.Header().Set("Content-Type", server.ContentTypeBinary)
	w.WriteHeader(status)
	_, _ = w.Write(frame)
}

// relayError forwards a fleet-call failure to the front-door client in the
// request's encoding, preserving the node's status code when the failure
// was the node's answer (an *APIError) and mapping transport failures to
// 502 — the router reached no verdict, the node did not answer.
func relayError(w http.ResponseWriter, binary bool, err error) {
	status := http.StatusBadGateway
	var ae *APIError
	if errors.As(err, &ae) {
		status = ae.Status
		if ae.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(ae.RetryAfter/time.Second)))
		}
	}
	if binary {
		writeRouterFrame(w, status, wire.AppendErrorFrame(nil, err.Error()))
		return
	}
	writeRouterJSON(w, status, server.ErrorResponse{Error: err.Error()})
}

func badRequest(w http.ResponseWriter, binary bool, msg string) {
	if binary {
		writeRouterFrame(w, http.StatusBadRequest, wire.AppendErrorFrame(nil, msg))
		return
	}
	writeRouterJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: msg})
}

// isBinary reports whether the request declares the binary wire encoding.
func isBinary(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == server.ContentTypeBinary || strings.HasPrefix(ct, server.ContentTypeBinary+";")
}

// readFrame reads the body and unwraps one frame of type want.
func readFrame(r *http.Request, want wire.FrameType) ([]byte, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("reading request body: %v", err)
	}
	typ, payload, rest, err := wire.DecodeFrame(body)
	if err != nil {
		return nil, fmt.Errorf("decoding request frame: %v", err)
	}
	if typ != want {
		return nil, fmt.Errorf("request frame is %v, want %v", typ, want)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("request body carries trailing data after the frame")
	}
	return payload, nil
}

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	binary := isBinary(r)
	var req server.RegisterRequest
	if binary {
		payload, err := readFrame(r, wire.FrameRegisterRequest)
		if err != nil {
			badRequest(w, true, err.Error())
			return
		}
		var wr wire.RegisterRequest
		if err := wr.DecodeFrom(payload); err != nil {
			badRequest(w, true, fmt.Sprintf("decoding register request: %v", err))
			return
		}
		req = server.RegisterRequest{Key: wr.Key, Config: wr.Config, Artifact: wr.Artifact, Async: wr.Async}
	} else if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badRequest(w, false, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if req.Key == "" {
		badRequest(w, binary, "missing key")
		return
	}
	if req.Config == "" {
		badRequest(w, binary, "missing config (the text format of internal/config; required even with an artifact)")
		return
	}
	resp, err := rt.fleet.RegisterFull(req.Key, req.Config, req.Artifact, req.Async)
	if err != nil {
		relayError(w, binary, err)
		return
	}
	status := http.StatusOK
	if resp.Status == "pending" {
		status = http.StatusAccepted
	}
	if binary {
		frame := wire.AppendRegisterResponseFrame(nil, &wire.RegisterResponse{
			Key: resp.Key, Source: resp.Source, Status: resp.Status, StatusURL: resp.StatusURL,
		})
		writeRouterFrame(w, status, frame)
		return
	}
	writeRouterJSON(w, status, resp)
}

func (rt *Router) handleRegisterStatus(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" {
		badRequest(w, false, "missing key")
		return
	}
	resp, err := rt.fleet.AdmissionStatus(key)
	if err != nil {
		relayError(w, false, err)
		return
	}
	writeRouterJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleElect(w http.ResponseWriter, r *http.Request) {
	binary := isBinary(r)
	var key string
	if binary {
		payload, err := readFrame(r, wire.FrameElectRequest)
		if err != nil {
			badRequest(w, true, err.Error())
			return
		}
		var er wire.ElectRequest
		if err := er.DecodeFrom(payload); err != nil {
			badRequest(w, true, fmt.Sprintf("decoding elect request: %v", err))
			return
		}
		key = er.Key
	} else {
		var req server.ElectRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			badRequest(w, false, fmt.Sprintf("decoding request: %v", err))
			return
		}
		key = req.Key
	}
	if key == "" {
		badRequest(w, binary, "missing key")
		return
	}
	out, err := rt.fleet.Elect(key)
	if err != nil {
		relayError(w, binary, err)
		return
	}
	if binary {
		wo := wire.Outcome{Key: out.Key, Elected: out.Elected, Leader: out.Leader, Rounds: out.Rounds, Error: out.Error}
		writeRouterFrame(w, http.StatusOK, wire.AppendOutcomeFrame(nil, &wo))
		return
	}
	writeRouterJSON(w, http.StatusOK, out)
}

func (rt *Router) handleElectBatch(w http.ResponseWriter, r *http.Request) {
	binary := isBinary(r)
	var keys []string
	if binary {
		payload, err := readFrame(r, wire.FrameBatchRequest)
		if err != nil {
			badRequest(w, true, err.Error())
			return
		}
		var br wire.BatchRequest
		if err := br.DecodeFrom(payload); err != nil {
			badRequest(w, true, fmt.Sprintf("decoding batch request: %v", err))
			return
		}
		keys = br.Keys
	} else {
		var req server.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			badRequest(w, false, fmt.Sprintf("decoding request: %v", err))
			return
		}
		keys = req.Keys
	}
	if len(keys) == 0 {
		badRequest(w, binary, "missing keys")
		return
	}
	if len(keys) > rt.opts.MaxBatchKeys {
		badRequest(w, binary, fmt.Sprintf("batch of %d keys exceeds the limit of %d", len(keys), rt.opts.MaxBatchKeys))
		return
	}
	resp, err := rt.fleet.ElectBatch(keys)
	if err != nil {
		relayError(w, binary, err)
		return
	}
	if binary {
		wb := wire.BatchResponse{Outcomes: make([]wire.Outcome, len(resp.Outcomes)), Failures: resp.Failures}
		for i, o := range resp.Outcomes {
			wb.Outcomes[i] = wire.Outcome{Key: o.Key, Elected: o.Elected, Leader: o.Leader, Rounds: o.Rounds, Error: o.Error}
		}
		writeRouterFrame(w, http.StatusOK, wire.AppendBatchResponseFrame(nil, &wb))
		return
	}
	writeRouterJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleEvict(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" {
		badRequest(w, false, "missing key")
		return
	}
	if err := rt.fleet.Evict(key); err != nil {
		relayError(w, false, err)
		return
	}
	writeRouterJSON(w, http.StatusOK, server.EvictResponse{Key: key, Evicted: true})
}

func (rt *Router) handleArtifactExport(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" {
		badRequest(w, false, "missing key")
		return
	}
	frame, err := rt.fleet.ClientFor(key).FetchArtifact(key)
	if err != nil {
		relayError(w, false, err)
		return
	}
	writeRouterFrame(w, http.StatusOK, frame)
}

func (rt *Router) handleAdmitArtifact(w http.ResponseWriter, r *http.Request) {
	if !isBinary(r) {
		writeRouterJSON(w, http.StatusUnsupportedMediaType, server.ErrorResponse{
			Error: fmt.Sprintf("artifact admission requires Content-Type %q", server.ContentTypeBinary),
		})
		return
	}
	payload, err := readFrame(r, wire.FrameWALAdmit)
	if err != nil {
		badRequest(w, true, err.Error())
		return
	}
	var rec wire.WALAdmit
	if err := rec.DecodeFrom(payload); err != nil {
		badRequest(w, true, fmt.Sprintf("decoding artifact frame: %v", err))
		return
	}
	if rec.Key == "" {
		badRequest(w, true, "missing key")
		return
	}
	if _, err := config.Unmarshal(rec.Config); err != nil {
		badRequest(w, true, fmt.Sprintf("parsing config: %v", err))
		return
	}
	// Re-encode the validated frame for the owning node and remember the
	// configuration so a node loss can rebuild the key.
	frame := wire.AppendWALAdmitFrame(nil, &rec)
	resp, err := rt.fleet.ClientFor(rec.Key).AdmitArtifact(frame)
	if err != nil {
		relayError(w, true, err)
		return
	}
	rt.fleet.NoteConfig(rec.Key, rec.Config)
	out := wire.AppendRegisterResponseFrame(nil, &wire.RegisterResponse{
		Key: resp.Key, Source: resp.Source, Status: resp.Status,
	})
	writeRouterFrame(w, http.StatusOK, out)
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeRouterJSON(w, http.StatusOK, rt.fleet.Stats())
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
	writeRouterJSON(w, http.StatusOK, h)
}
