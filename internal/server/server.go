// Package server is the HTTP/JSON front-end of the sharded election
// service: the layer that turns an in-process service.Registry into a
// deployable network server (cmd/anonradiod).
//
// The surface is deliberately small and maps one-to-one onto the registry:
//
//	POST   /v1/register              admit a configuration (text format) or
//	                                 a compiled artifact under a key —
//	                                 synchronously, or with "async": true
//	                                 as a 202 + pollable admission
//	GET    /v1/register/status/{key} poll an admission's progress
//	POST   /v1/elect                 serve one election for a key
//	POST   /v1/elect/batch           serve one election per key, batched
//	                                 onto Registry.ElectBatch
//	DELETE /v1/configs/{key}         evict a key
//	GET    /v1/artifact/{key}        export a key's compiled artifact as one
//	                                 binary frame (the fleet migration unit)
//	POST   /v1/admit/artifact        admit such a frame by loading its
//	                                 artifact — no classifier run
//	GET    /v1/stats                 per-shard registry counters, admission
//	                                 pipeline counters, per-key fault
//	                                 counters (under fault injection) and
//	                                 per-endpoint request/latency/outcome
//	                                 counters
//	GET    /healthz                  liveness from cached atomic counters —
//	                                 never enters a shard queue
//
// Handlers do no election work themselves: they decode the request
// strictly (unknown fields and trailing data are 400s, oversized bodies
// 413), hand it to a Backend — here the registry, whose worker-owned shards
// serve the zero-alloc election path while the builder pool absorbs
// admissions — and encode the value-typed outcome. Served outcomes are
// therefore bit-identical to in-process Registry.Elect: the HTTP layer adds
// transport and accounting, never semantics. When the registry's bounded
// admission queue is full, registrations answer 429 with a Retry-After
// header, the server's backpressure signal. The fleet router
// (internal/fleet) serves the same routes through the same handlers over
// its Fleet (see Relay and frontdoor.go).
//
// The register, elect and batch endpoints also speak a binary wire
// encoding: a request with Content-Type "application/x-anonradio-bin"
// carries one internal/wire frame and is answered in kind, through pooled
// codec state that keeps the hot elect path nearly allocation-free (see
// codec.go and docs/SERVER.md). Each request and answer of those routes is
// one internal/wire message in both encodings (its JSON tags and its frame
// codec), so outcomes are bit-identical across the two: the encoding is
// negotiated per request, never per deployment.
//
// The server also wires the snapshot layer to deployment: LoadSnapshot
// re-admits a snapshot directory by loading its artifacts before the
// listener opens, and Shutdown drains in-flight requests so a
// snapshot taken afterwards is consistent. See docs/SERVER.md for the full
// API reference and the operations guide.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strings"
	"time"

	"anonradio/internal/canonical"
	"anonradio/internal/election"
	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// Options configure a Server (Relay reads the two caps). The zero value is
// ready to use.
type Options struct {
	// MaxBodyBytes caps the request body size; <= 0 selects 32 MiB
	// (compiled artifacts for large configurations are megabytes of JSON).
	MaxBodyBytes int64
	// MaxBatchKeys caps the number of keys of one batch election request;
	// <= 0 selects 8192. Larger batches are rejected with 400 rather than
	// letting one request monopolize every shard queue.
	MaxBatchKeys int
}

// readHeaderTimeout bounds how long a connection may take to send its
// request header.
const readHeaderTimeout = 5 * time.Second

// Server serves a service.Registry over HTTP. Create it with New, start it
// with Serve or ListenAndServe, and stop it with Shutdown (which drains
// in-flight requests). The Server never closes the registry — its owner
// decides when to snapshot and close.
type Server struct {
	reg     *service.Registry
	mux     *http.ServeMux
	httpSrv *http.Server
	metrics [epCount]endpointMetrics
	start   time.Time
	opts    Options
}

// New builds a server over reg. The registry must outlive the server.
func New(reg *service.Registry, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{reg: reg, mux: http.NewServeMux(), start: time.Now(), opts: opts}
	d := &frontDoor{b: reg, opts: opts, metrics: &s.metrics, retryAfter: s.retryAfterSeconds, fallback: http.StatusInternalServerError}
	d.route(s.mux)
	s.mux.HandleFunc("GET /v1/stats", d.instrument(epStats, s.handleStats))
	s.mux.HandleFunc("GET /healthz", d.instrument(epHealth, s.handleHealth))
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout}
	return s
}

// withDefaults fills in the zero fields of o.
func (o Options) withDefaults() Options {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.MaxBatchKeys <= 0 {
		o.MaxBatchKeys = 8192
	}
	return o
}

// Registry returns the registry the server serves.
func (s *Server) Registry() *service.Registry { return s.reg }

// Handler returns the routing handler (useful for tests and embedding the
// API under a larger mux).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown (or a listener error). Like
// net/http, it returns http.ErrServerClosed after a clean Shutdown.
func (s *Server) Serve(l net.Listener) error { return s.httpSrv.Serve(l) }

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	s.httpSrv.Addr = addr
	return s.httpSrv.ListenAndServe()
}

// Shutdown gracefully stops the server: the listener closes, in-flight
// requests run to completion (bounded by ctx), and new requests are
// refused. After Shutdown returns, the registry is quiescent from the
// server's side — the natural moment for Registry.Snapshot.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpSrv.Shutdown(ctx)
}

// LoadSnapshot restores the snapshot in dir into reg: every manifest entry
// is re-admitted by loading its artifact (election.Load), so a cold restart
// skips the classifier. Call it before Serve so the first request already
// sees the restored keys.
func LoadSnapshot(reg *service.Registry, dir string) (*service.RestoreReport, error) {
	return reg.Restore(dir)
}

// AdmissionStatusResponse is the body of GET /v1/register/status/{key}.
type AdmissionStatusResponse struct {
	// Key is the polled key.
	Key string `json:"key"`
	// State is "queued", "building", "done" or "failed" (an unknown key is
	// a 404, not a state).
	State string `json:"state"`
	// Error carries the admission failure when State is "failed".
	Error string `json:"error,omitempty"`
}

// EvictResponse is the body of a successful DELETE /v1/configs/{key}.
type EvictResponse struct {
	// Key is the evicted key.
	Key string `json:"key"`
	// Evicted is always true on the 200 path (a missing key is a 404).
	Evicted bool `json:"evicted"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// UptimeSeconds is the time since the server was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Shards holds one row of registry counters per shard.
	Shards []service.ShardStats `json:"shards"`
	// Totals folds the shard rows into one aggregate (Shard is -1).
	Totals service.ShardStats `json:"totals"`
	// Admission holds the admission pipeline counters.
	Admission service.AdmissionStats `json:"admission"`
	// WAL holds the admission journal counters (Enabled is false on a
	// non-durable registry).
	WAL service.WALStats `json:"wal"`
	// FaultKeys holds per-key injected-fault counters, one row per
	// registered key; present only when the registry runs under a fault
	// plan (see service.Options.Fault).
	FaultKeys []service.KeyFaultStats `json:"fault_keys,omitempty"`
	// Endpoints holds the per-endpoint request/latency/outcome counters.
	Endpoints []EndpointStats `json:"endpoints"`
}

// HealthResponse is the body of GET /healthz. Everything in it comes from
// cached atomic counters, so a liveness probe answers even while every
// shard is busy.
type HealthResponse struct {
	// Status is "ok" while the server answers at all.
	Status string `json:"status"`
	// Configs is the number of registered configurations.
	Configs int `json:"configs"`
	// Shards is the registry's shard count.
	Shards int `json:"shards"`
	// PendingAdmissions counts admissions queued or building.
	PendingAdmissions int64 `json:"pending_admissions"`
	// WALEnabled reports whether admissions are journaled.
	WALEnabled bool `json:"wal_enabled"`
	// WALUnsynced is the WAL lag: records acknowledged but not yet on
	// stable storage (always 0 under the "always" sync policy). Like every
	// other field here it reads cached atomics — probing it never touches
	// the journal file.
	WALUnsynced uint64 `json:"wal_unsynced"`
}

// statusRecorder captures the status a handler wrote so the endpoint
// metrics can classify the request.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// WriteJSON answers v as indented JSON with the given status: the encoding
// of every JSON body a front door writes (the pooled serve path writes the
// same bytes).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status is already on the wire; nothing to do on error
}

// retryAfterSeconds derives the 429 Retry-After value from the pipeline's
// actual backlog instead of a constant: the queue drains at roughly one
// admission per builder per second-ish build, so pending/builders estimates
// the drain time. Clamped to [1, 60] — never "0" (a thundering-herd
// invitation) and never an hour-long backoff from a transient spike.
func (s *Server) retryAfterSeconds() int {
	ast := s.reg.AdmissionStats()
	builders := ast.Builders
	if builders < 1 {
		builders = 1
	}
	secs := int((ast.Pending + int64(builders) - 1) / int64(builders))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// statuses pairs each sentinel error of the service and election layers
// with the HTTP status a front door answers it with: configuration text
// that does not parse is 400, unknown keys are 404, a full admission queue
// is 429 (backpressure; retry), a closed registry is 503 (the daemon is
// shutting down), and infeasible configurations, protocols past the round
// or code-matrix limits and artifacts the loaders reject are 422
// (well-formed but inadmissible). statusFor reads it from error to status,
// Sentinels from status back to error.
var statuses = [...]struct {
	err    error
	status int
}{
	{service.ErrInvalidConfig, http.StatusBadRequest},
	{service.ErrUnknownKey, http.StatusNotFound},
	{service.ErrAdmissionBusy, http.StatusTooManyRequests},
	{service.ErrClosed, http.StatusServiceUnavailable},
	{election.ErrInfeasible, http.StatusUnprocessableEntity},
	{canonical.ErrRoundOverflow, http.StatusUnprocessableEntity},
	{election.ErrInvalidArtifact, http.StatusUnprocessableEntity},
}

// statusFor maps err onto the status of the first sentinel it wraps, or
// onto fallback when it wraps none.
func statusFor(err error, fallback int) int {
	for _, row := range statuses {
		if errors.Is(err, row.err) {
			return row.status
		}
	}
	return fallback
}

// Sentinels returns the sentinel errors an answer with status and message
// stands for, read from the status table the other way: each sentinel
// paired with status whose text the message carries. A front door's
// message is the text of its error, which contains the text of every
// sentinel it wraps. fleet.APIError unwraps through it.
func Sentinels(status int, message string) []error {
	var errs []error
	for _, row := range statuses {
		if row.status == status && strings.Contains(message, row.err.Error()) {
			errs = append(errs, row.err)
		}
	}
	return errs
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := s.reg.Stats()
	if err != nil {
		// 503 on a closed registry, not a healthy-looking all-zero table.
		WriteJSON(w, statusFor(err, http.StatusInternalServerError), wire.ErrorMessage{Error: err.Error()})
		return
	}
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Shards:        stats,
		Totals:        service.Totals(stats),
		Admission:     s.reg.AdmissionStats(),
		WAL:           s.reg.WALStats(),
	}
	if fks, err := s.reg.FaultKeyStats(); err == nil {
		resp.FaultKeys = fks
	}
	for ep := endpoint(0); ep < epCount; ep++ {
		resp.Endpoints = append(resp.Endpoints, s.metrics[ep].snapshot(ep))
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Len, AdmissionStats and WALStats read cached atomics — a liveness
	// probe must never queue behind shard traffic or journal fsyncs
	// (pre-PR-5, Len issued a synchronous request per shard and a single
	// mid-build shard failed the probe).
	wst := s.reg.WALStats()
	WriteJSON(w, http.StatusOK, HealthResponse{
		Status:            "ok",
		Configs:           s.reg.Len(),
		Shards:            s.reg.Shards(),
		PendingAdmissions: s.reg.AdmissionStats().Pending,
		WALEnabled:        wst.Enabled,
		WALUnsynced:       wst.Unsynced,
	})
}
