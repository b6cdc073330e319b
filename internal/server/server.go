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
// codec.go and docs/SERVER.md). Outcomes are bit-identical across the two
// encodings: the encoding is negotiated per request, never per deployment.
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
	// ReadHeaderTimeout bounds how long a connection may take to send its
	// request header; <= 0 selects 5s.
	ReadHeaderTimeout time.Duration
}

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
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: opts.ReadHeaderTimeout}
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
	if o.ReadHeaderTimeout <= 0 {
		o.ReadHeaderTimeout = 5 * time.Second
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

// LoadSnapshot restores the snapshot in dir into the server's registry (see
// service.Registry.Restore); call it before Serve so the first request
// already sees the restored keys.
func (s *Server) LoadSnapshot(dir string) (*service.RestoreReport, error) {
	return LoadSnapshot(s.reg, dir)
}

// LoadSnapshot restores the snapshot in dir into reg: every manifest entry
// is re-admitted by loading its artifact (election.Load), so a cold restart
// skips the classifier.
func LoadSnapshot(reg *service.Registry, dir string) (*service.RestoreReport, error) {
	return reg.Restore(dir)
}

// RegisterRequest is the body of POST /v1/register.
type RegisterRequest struct {
	// Key is the registry key to admit the configuration under.
	Key string `json:"key"`
	// Config is the configuration in the text format of internal/config
	// ("nodes N / tag v t / edge u v" lines). Always required: a compiled
	// artifact deliberately carries only what the anonymous nodes need, not
	// the network itself.
	Config string `json:"config"`
	// Artifact optionally carries a compiled algorithm (the JSON written by
	// cmd/compile or a snapshot). When present the registry loads it
	// (election.Load) instead of classifying and building; an artifact that
	// contradicts itself or the configuration answers 422.
	Artifact *election.Compiled `json:"artifact,omitempty"`
	// Async selects the asynchronous admission flow: the server answers 202
	// as soon as the registration is queued on the builder pool, and the
	// client polls GET /v1/register/status/{key} for the outcome.
	Async bool `json:"async,omitempty"`
}

// RegisterResponse is the body of a successful POST /v1/register.
type RegisterResponse struct {
	// Key is the admitted key.
	Key string `json:"key"`
	// Source is "built" (classified and compiled server-side) or "artifact"
	// (loaded from the request's compiled artifact).
	Source string `json:"source"`
	// Status is "admitted" (synchronous admission completed, 200) or
	// "pending" (async admission accepted, 202 — poll StatusURL).
	Status string `json:"status"`
	// StatusURL is the admission-status endpoint for the key (async only).
	StatusURL string `json:"status_url,omitempty"`
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

// ElectRequest is the body of POST /v1/elect.
type ElectRequest struct {
	// Key is the registry key to elect on.
	Key string `json:"key"`
}

// Outcome is the JSON form of one served election.
type Outcome struct {
	// Key is the configuration key the election ran for.
	Key string `json:"key"`
	// Elected reports whether the election succeeded.
	Elected bool `json:"elected"`
	// Leader is the elected node (-1 when the election failed).
	Leader int `json:"leader"`
	// Rounds is the number of global rounds of the election.
	Rounds int `json:"rounds"`
	// Error carries the per-key failure, when there is one.
	Error string `json:"error,omitempty"`
}

// BatchRequest is the body of POST /v1/elect/batch.
type BatchRequest struct {
	// Keys are the registry keys to elect on; outcome i corresponds to
	// keys[i].
	Keys []string `json:"keys"`
}

// BatchResponse is the body of POST /v1/elect/batch. The request itself
// succeeds (200) whenever it was well-formed; per-key failures are reported
// in their outcome slot and counted in Failures.
type BatchResponse struct {
	// Outcomes has one entry per submitted key, in submission order.
	Outcomes []Outcome `json:"outcomes"`
	// Failures counts outcomes whose Error is set.
	Failures int `json:"failures"`
}

// EvictResponse is the body of a successful DELETE /v1/configs/{key}.
type EvictResponse struct {
	// Key is the evicted key.
	Key string `json:"key"`
	// Evicted is always true on the 200 path (a missing key is a 404).
	Evicted bool `json:"evicted"`
}

// ShardStats mirrors service.ShardStats with JSON tags.
type ShardStats struct {
	// Shard is the shard index (-1 in the totals row).
	Shard int `json:"shard"`
	// Configs is the number of registered configurations.
	Configs int `json:"configs"`
	// Builds counts successful admissions.
	Builds int64 `json:"builds"`
	// Elections counts successfully served elections.
	Elections int64 `json:"elections"`
	// Failures counts failed operations.
	Failures int64 `json:"failures"`
	// Rounds accumulates the global rounds of all served elections.
	Rounds int64 `json:"rounds"`
	// Stolen counts elections this shard's worker served from a loaded
	// sibling's queue (work stealing, with two or more shards).
	Stolen int64 `json:"stolen"`
	// StolenFrom counts this shard's elections that were served by an idle
	// sibling's worker.
	StolenFrom int64 `json:"stolen_from"`
	// Queued is the shard's queue depth — requests plus stealable
	// elections — at the instant the stats were gathered.
	Queued int `json:"queued"`
}

// AdmissionStats mirrors service.AdmissionStats with JSON tags: the
// admission pipeline's counters as served by GET /v1/stats.
type AdmissionStats struct {
	// Builders is the size of the builder pool.
	Builders int `json:"builders"`
	// QueueCapacity is the bound of the admission queue.
	QueueCapacity int `json:"queue_capacity"`
	// Pending counts admissions submitted but not yet terminal.
	Pending int64 `json:"pending"`
	// Submitted counts admissions accepted into the queue.
	Submitted int64 `json:"submitted"`
	// Completed counts admissions that installed successfully.
	Completed int64 `json:"completed"`
	// Failed counts admissions that ended in failure.
	Failed int64 `json:"failed"`
	// Rejected counts registrations refused with 429 (queue full).
	Rejected int64 `json:"rejected"`
	// ArtifactLoads counts admissions installed from an artifact (registered,
	// shipped, restored or replayed) — the counter a fleet migration that
	// ships instead of rebuilding is asserted against.
	ArtifactLoads int64 `json:"artifact_loads"`
	// RebuildHits counts builds that reused a retired algorithm's buffers
	// from the size-bucketed retired pool instead of allocating fresh ones.
	RebuildHits int64 `json:"rebuild_hits"`
}

// KeyFaultStats mirrors service.KeyFaultStats with JSON tags: one key's
// accumulated injected-fault observations, served by GET /v1/stats when the
// registry runs under a fault plan.
type KeyFaultStats struct {
	// Key is the registry key.
	Key string `json:"key"`
	// Elections counts fault-accounted elections served for the key.
	Elections int64 `json:"elections"`
	// Drops counts message deliveries the fault plan suppressed.
	Drops int64 `json:"drops"`
	// Noise counts perceptions the fault plan corrupted into collisions.
	Noise int64 `json:"noise"`
	// OutageRounds accumulates, per round, the number of nodes held down by
	// an outage window.
	OutageRounds int64 `json:"outage_rounds"`
}

// WALStats mirrors service.WALStats with JSON tags: the admission
// journal's counters as served by GET /v1/stats.
type WALStats struct {
	// Enabled reports whether the registry journals admissions at all;
	// every other field is zero when false.
	Enabled bool `json:"enabled"`
	// Dir is the journal directory.
	Dir string `json:"dir,omitempty"`
	// Policy is the fsync policy ("always", "batch", "off").
	Policy string `json:"policy,omitempty"`
	// Appends counts records journaled since boot.
	Appends uint64 `json:"appends"`
	// Unsynced is the WAL lag: records acknowledged but not yet on stable
	// storage.
	Unsynced uint64 `json:"unsynced"`
	// Syncs counts fsync calls.
	Syncs uint64 `json:"syncs"`
	// AppendFailures counts admissions that installed but could not be
	// journaled.
	AppendFailures int64 `json:"append_failures"`
	// JournalBytes is the journal size across all segments.
	JournalBytes int64 `json:"journal_bytes"`
	// Segments is the number of segment files, including the active one.
	Segments int `json:"segments"`
	// RecordsSinceCheckpoint counts journal records a crash would replay.
	RecordsSinceCheckpoint int64 `json:"records_since_checkpoint"`
	// Checkpoints counts completed checkpoints since boot.
	Checkpoints int64 `json:"checkpoints"`
	// CheckpointFailures counts background checkpoints that failed.
	CheckpointFailures int64 `json:"checkpoint_failures"`
	// LastCheckpointSeconds is the duration of the most recent checkpoint.
	LastCheckpointSeconds float64 `json:"last_checkpoint_seconds"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// UptimeSeconds is the time since the server was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Shards holds one row of registry counters per shard.
	Shards []ShardStats `json:"shards"`
	// Totals folds the shard rows into one aggregate (Shard is -1).
	Totals ShardStats `json:"totals"`
	// Admission holds the admission pipeline counters.
	Admission AdmissionStats `json:"admission"`
	// WAL holds the admission journal counters (Enabled is false on a
	// non-durable registry).
	WAL WALStats `json:"wal"`
	// FaultKeys holds per-key injected-fault counters, one row per
	// registered key; present only when the registry runs under a fault
	// plan (see service.Options.Fault).
	FaultKeys []KeyFaultStats `json:"fault_keys,omitempty"`
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

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	// Error is the human-readable failure.
	Error string `json:"error"`
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
		WriteJSON(w, statusFor(err, http.StatusInternalServerError), ErrorResponse{Error: err.Error()})
		return
	}
	ast := s.reg.AdmissionStats()
	wst := s.reg.WALStats()
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Shards:        make([]ShardStats, len(stats)),
		Totals:        shardStatsJSON(service.Totals(stats)),
		Admission: AdmissionStats{
			Builders:      ast.Builders,
			QueueCapacity: ast.QueueCapacity,
			Pending:       ast.Pending,
			Submitted:     ast.Submitted,
			Completed:     ast.Completed,
			Failed:        ast.Failed,
			Rejected:      ast.Rejected,
			ArtifactLoads: ast.ArtifactLoads,
			RebuildHits:   ast.RebuildHits,
		},
		WAL: WALStats{
			Enabled:                wst.Enabled,
			Dir:                    wst.Dir,
			Policy:                 wst.Policy,
			Appends:                wst.Appends,
			Unsynced:               wst.Unsynced,
			Syncs:                  wst.Syncs,
			AppendFailures:         wst.AppendFailures,
			JournalBytes:           wst.JournalBytes,
			Segments:               wst.Segments,
			RecordsSinceCheckpoint: wst.RecordsSinceCheckpoint,
			Checkpoints:            wst.Checkpoints,
			CheckpointFailures:     wst.CheckpointFailures,
			LastCheckpointSeconds:  wst.LastCheckpoint.Seconds(),
		},
	}
	for i, st := range stats {
		resp.Shards[i] = shardStatsJSON(st)
	}
	if fks, err := s.reg.FaultKeyStats(); err == nil {
		for _, fk := range fks {
			resp.FaultKeys = append(resp.FaultKeys, KeyFaultStats{
				Key:          fk.Key,
				Elections:    fk.Elections,
				Drops:        fk.Drops,
				Noise:        fk.Noise,
				OutageRounds: fk.OutageRounds,
			})
		}
	}
	for ep := endpoint(0); ep < epCount; ep++ {
		resp.Endpoints = append(resp.Endpoints, s.metrics[ep].snapshot(ep))
	}
	WriteJSON(w, http.StatusOK, resp)
}

func shardStatsJSON(s service.ShardStats) ShardStats {
	return ShardStats{
		Shard:      s.Shard,
		Configs:    s.Configs,
		Builds:     s.Builds,
		Elections:  s.Elections,
		Failures:   s.Failures,
		Rounds:     s.Rounds,
		Stolen:     s.Stolen,
		StolenFrom: s.StolenFrom,
		Queued:     s.Queued,
	}
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
