// Package anonradio is the public API of the reproduction of
// "Deterministic Leader Election in Anonymous Radio Networks"
// (Miller, Pelc, Yadav; SPAA 2020).
//
// The package lets users build configurations (anonymous radio networks with
// wake-up tags), decide their feasibility with the paper's Classifier
// algorithm, derive the dedicated canonical leader-election protocol for
// feasible configurations, execute it on a faithful simulator of the radio
// model (one zero-alloc, event-driven simulation core), and regenerate the
// repository's experiment tables.
//
// A minimal end-to-end use:
//
//	cfg, err := anonradio.NewConfig(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, []int{2, 0, 0, 3}, "demo")
//	report, err := anonradio.Classify(cfg)
//	if report.Feasible() {
//	    outcome, dedicated, err := anonradio.Elect(cfg)
//	    fmt.Println("leader:", outcome.Leader(), "rounds:", outcome.Rounds)
//	    _ = dedicated
//	}
//
// The heavy lifting lives in the internal packages; this package re-exports
// the user-facing pieces and provides convenience constructors so that
// applications (and the examples/ directory) only ever import anonradio.
package anonradio

import (
	"fmt"
	"io"
	"math/rand"

	"anonradio/internal/baseline"
	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/election"
	"anonradio/internal/fleet"
	"anonradio/internal/graph"
	"anonradio/internal/harness"
	"anonradio/internal/history"
	"anonradio/internal/radio"
	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// Config is a configuration: a connected undirected graph whose nodes carry
// non-negative wake-up tags. See internal/config for the full method set
// (Span, MaxDegree, Describe, Marshal, ...).
type Config = config.Config

// Report is the result of running the Classifier on a configuration. See
// internal/core for the full method set (Feasible, Iterations, Summary, ...).
type Report = core.Report

// Dedicated is a dedicated leader election algorithm for one feasible
// configuration: the canonical DRIP plus its decision function.
//
// The algorithm itself is immutable once built: ElectOn runs an election on
// a simulator the caller owns and only reads the Dedicated, so elections of
// one Dedicated may run concurrently, each on its own simulator (that is
// how the election service runs them, one simulator per shard worker).
// The standalone Elect and ElectInto run on a convenience simulator the
// Dedicated creates once and reuses, so those two are not safe for
// concurrent use, and their outcome's Result aliases that simulator — it is
// valid until the next standalone election on the same Dedicated. Callers
// that retain histories across elections must Clone them.
type Dedicated = election.Dedicated

// ElectionOutcome is the result of executing a leader election algorithm.
type ElectionOutcome = radio.ElectionOutcome

// SimulationResult is the raw outcome of executing a protocol on a
// configuration: per-node histories, wake-up rounds and termination rounds.
type SimulationResult = radio.Result

// ExperimentTable is a rendered experiment result.
type ExperimentTable = harness.Table

// History is a node's history vector: one entry per local round, each either
// silence, a received message, or noise (a detected collision).
type History = history.Vector

// HistoryEntry is a single history entry.
type HistoryEntry = history.Entry

// HistoryKind discriminates the three possible history entries.
type HistoryKind = history.Kind

// The three possible history entry kinds.
const (
	HistorySilence = history.Silence
	HistoryMessage = history.Message
	HistoryNoise   = history.Noise
)

// NewConfig builds a configuration with n nodes (numbered 0..n-1), the given
// undirected edges, and the given wake-up tags (one per node, non-negative).
// The graph must be connected.
func NewConfig(n int, edges [][2]int, tags []int, name string) (*Config, error) {
	g := graph.New(n)
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n || e[0] == e[1] {
			return nil, fmt.Errorf("anonradio: invalid edge %v", e)
		}
		g.AddEdge(e[0], e[1])
	}
	cfg, err := config.New(g, tags)
	if err != nil {
		return nil, err
	}
	cfg.Name = name
	return cfg, nil
}

// ParseConfig reads a configuration in the text format produced by
// (*Config).Marshal (see internal/config for the grammar).
func ParseConfig(r io.Reader) (*Config, error) { return config.Read(r) }

// RandomConfig generates a random connected configuration with n nodes, edge
// density p on top of a random spanning tree, and independent uniform
// wake-up tags in [0, span]. The same seed always yields the same
// configuration.
func RandomConfig(n int, p float64, span int, seed int64) *Config {
	rng := rand.New(rand.NewSource(seed))
	return config.Random(n, p, config.UniformRandomTags{Span: span}, rng)
}

// The deterministic configuration families used throughout the paper and the
// experiments.
var (
	// LineFamilyG builds G_m of Proposition 4.1 (span 1, n = 4m+1, Ω(n)
	// election time).
	LineFamilyG = config.LineFamilyG
	// SpanFamilyH builds H_m of Lemma 4.2 (4 nodes, feasible, needs >= m
	// rounds).
	SpanFamilyH = config.SpanFamilyH
	// SymmetricFamilyS builds S_m of Proposition 4.5 (4 nodes, infeasible).
	SymmetricFamilyS = config.SymmetricFamilyS
	// StaggeredPath builds a path whose node i has tag i*step.
	StaggeredPath = config.StaggeredPath
	// StaggeredClique builds a complete graph whose node i has tag i.
	StaggeredClique = config.StaggeredClique
	// EarlyCenterStar builds a star whose centre wakes first.
	EarlyCenterStar = config.EarlyCenterStar
	// SingleNode builds the trivial feasible one-node configuration.
	SingleNode = config.SingleNode
	// SymmetricPair builds the smallest infeasible configuration.
	SymmetricPair = config.SymmetricPair
	// AsymmetricPair builds the two-node configuration with staggered tags.
	AsymmetricPair = config.AsymmetricPair
)

// Classify runs the paper's Classifier algorithm (Theorem 3.17) on cfg and
// returns the full report: verdict, partition evolution, representative
// lists and designated leader.
func Classify(cfg *Config) (*Report, error) { return core.Classify(cfg) }

// IsFeasible reports whether a dedicated deterministic leader election
// algorithm exists for cfg.
func IsFeasible(cfg *Config) (bool, error) { return core.IsFeasible(cfg) }

// BuildElection constructs the dedicated leader election algorithm (the
// canonical DRIP and its decision function, Theorem 3.15) for a feasible
// configuration. It returns election.ErrInfeasible (wrapped) when cfg is not
// feasible.
func BuildElection(cfg *Config) (*Dedicated, error) { return election.BuildDedicated(cfg) }

// ErrInfeasible is returned (wrapped) by BuildElection and Elect when the
// configuration admits no leader election algorithm.
var ErrInfeasible = election.ErrInfeasible

// Elect classifies cfg, builds its dedicated algorithm, executes it and
// verifies the outcome (exactly one leader, the designated node, within the
// round bound). The outcome's Result aliases the returned Dedicated's
// convenience simulator; see Dedicated for the lifetime and concurrency
// contract.
func Elect(cfg *Config) (*ElectionOutcome, *Dedicated, error) {
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		return nil, nil, err
	}
	out, err := ElectDedicated(d)
	if err != nil {
		return nil, nil, err
	}
	return out, d, nil
}

// ElectDedicated executes an already-built (or loaded) dedicated algorithm
// and verifies the outcome; it is the serving half of Elect/ElectCompiled
// for callers that manage algorithm lifetimes themselves.
func ElectDedicated(d *Dedicated) (*ElectionOutcome, error) {
	out, err := d.Elect(radio.Options{})
	if err != nil {
		return nil, err
	}
	if err := d.Verify(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Simulate executes the dedicated algorithm's protocol on its configuration
// and returns the raw per-node histories; it is the entry point for users
// who want to inspect executions rather than just the elected leader. The
// result owns its memory.
func Simulate(d *Dedicated, recordTrace bool) (*SimulationResult, error) {
	return radio.Sequential{}.Run(d.Config, d.DRIP, radio.Options{RecordTrace: recordTrace})
}

// CrossCheckFeasibility classifies cfg with both the Classifier and the
// independent naive oracle and reports whether they agree (they always
// should; the function exists for users who want the redundancy).
func CrossCheckFeasibility(cfg *Config) (feasible bool, agree bool, err error) {
	rep, err := core.Classify(cfg)
	if err != nil {
		return false, false, err
	}
	naive, err := baseline.NaiveClassify(cfg)
	if err != nil {
		return false, false, err
	}
	return rep.Feasible(), rep.Feasible() == naive.Feasible, nil
}

// CompiledElection is the serializable (JSON) form of a dedicated algorithm:
// the canonical protocol blueprint plus the decision-function data. It is
// what cmd/compile writes to disk.
type CompiledElection = election.Compiled

// ExecutionMetrics summarizes a traced execution (transmissions, collisions,
// forced wake-ups, busy rounds).
type ExecutionMetrics = radio.Metrics

// CompileElection returns the serializable form of a dedicated algorithm;
// marshal it with encoding/json to persist it.
func CompileElection(d *Dedicated) *CompiledElection { return d.Compile() }

// LoadElection rebuilds an executable dedicated algorithm from its compiled
// form and the configuration it is meant to run on, compiling the phase
// table from the blueprint; see election.Load for the checks.
func LoadElection(c *CompiledElection, cfg *Config) (*Dedicated, error) {
	return election.Load(c, cfg)
}

// ParseCompiledElection decodes a compiled algorithm in any form it is
// persisted in, sniffed from the leading bytes: the JSON document
// cmd/compile writes, the binary artifact frame of an earlier release's
// snapshot file NNNN.artifact.bin, or a journal admit frame — the unit
// GET /v1/artifact/{key} serves and a snapshot's entries file holds per
// key — whose configuration ParseCompiledEntry also returns.
func ParseCompiledElection(data []byte) (*CompiledElection, error) {
	c, _, err := ParseCompiledEntry(data)
	return c, err
}

// ParseCompiledEntry is ParseCompiledElection that also returns the
// configuration a journal admit frame carries; cfg is nil for the other
// forms, which carry none.
func ParseCompiledEntry(data []byte) (c *CompiledElection, cfg *Config, err error) {
	typ, body, rest, err := wire.DecodeFrame(data)
	if err != nil || typ != wire.FrameWALAdmit {
		c, err = wire.DecodeArtifactAuto(data)
		return c, nil, err
	}
	var rec wire.WALAdmit
	if len(rest) != 0 {
		return nil, nil, wire.ErrTrailing
	}
	if err := rec.DecodeFrom(body); err != nil {
		return nil, nil, err
	}
	if rec.Artifact == nil {
		return nil, nil, fmt.Errorf("anonradio: admit frame for %q carries no artifact", rec.Key)
	}
	if cfg, err = config.Unmarshal(rec.Config); err != nil {
		return nil, nil, err
	}
	return rec.Artifact, cfg, nil
}

// ElectCompiled loads a pre-compiled dedicated algorithm (LoadElection),
// executes it on cfg and verifies the outcome.
func ElectCompiled(c *CompiledElection, cfg *Config) (*ElectionOutcome, *Dedicated, error) {
	d, err := election.Load(c, cfg)
	if err != nil {
		return nil, nil, err
	}
	out, err := ElectDedicated(d)
	if err != nil {
		return nil, nil, err
	}
	return out, d, nil
}

// Service is the sharded election service: a long-lived registry of
// dedicated algorithms served from worker-owned shards. Keys hash onto
// shards; each shard's worker owns its configurations, simulators and
// outcome buffers, so concurrent Register/Elect/Evict calls are safe and
// the steady-state Elect path performs zero heap allocations. Admissions
// (Register, RegisterCompiled, and their Async variants) build on a
// bounded builder pool off the serve path, so elections never wait behind
// a build; a full admission queue returns ErrServiceAdmissionBusy. See
// internal/service for the ownership model. Release a Service with Close.
type Service = service.Registry

// ServiceOptions configure a Service (shard count, per-shard queue depth,
// builder pool size, admission queue bound).
type ServiceOptions = service.Options

// ServiceOutcome is the value-typed result of one served election: key,
// elected leader, rounds, per-key error. It aliases no service-owned memory.
type ServiceOutcome = service.Outcome

// ServiceShardStats is a snapshot of one shard's counters.
type ServiceShardStats = service.ShardStats

// ErrServiceClosed is returned by operations on a closed Service.
var ErrServiceClosed = service.ErrClosed

// ErrServiceUnknownKey is returned (wrapped) by served elections on a key
// with no registered configuration.
var ErrServiceUnknownKey = service.ErrUnknownKey

// ErrServiceAdmissionBusy is returned (wrapped) by Service registrations
// when the bounded admission queue is full — the backpressure signal; retry
// after a short delay. The HTTP server maps it to 429 with a Retry-After
// header.
var ErrServiceAdmissionBusy = service.ErrAdmissionBusy

// ServiceAdmissionState is the lifecycle of one Service admission: unknown,
// queued, building, done or failed.
type ServiceAdmissionState = service.AdmissionState

// The admission lifecycle states, as reported by
// (*Service).AdmissionStatus.
const (
	ServiceAdmissionUnknown  = service.AdmissionUnknown
	ServiceAdmissionQueued   = service.AdmissionQueued
	ServiceAdmissionBuilding = service.AdmissionBuilding
	ServiceAdmissionDone     = service.AdmissionDone
	ServiceAdmissionFailed   = service.AdmissionFailed
)

// ServiceAdmissionStatus is the pollable progress of the most recent
// admission submitted for a key (see (*Service).RegisterAsync and
// (*Service).AdmissionStatus).
type ServiceAdmissionStatus = service.AdmissionStatus

// ServiceAdmissionStats is a snapshot of the Service admission pipeline's
// counters (builders, queue bound, pending/submitted/completed/failed/
// rejected admissions).
type ServiceAdmissionStats = service.AdmissionStats

// NewService starts a sharded election service. Admit configurations with
// Register (build on the builder pool) or RegisterCompiled (load an
// artifact), then serve steady-state elections with Elect / ElectBatch and
// observe the per-shard counters with Stats.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// ServiceTotals folds per-shard snapshots into one aggregate.
func ServiceTotals(stats []ServiceShardStats) ServiceShardStats { return service.Totals(stats) }

// ServiceSnapshotManifest describes an on-disk registry snapshot: the
// format version, the entries file, and one entry (key, node count, and
// the offset and length of its record in the entries file) per persisted
// configuration.
type ServiceSnapshotManifest = service.Manifest

// ServiceRestoreReport summarizes a snapshot restore: entries re-admitted
// and entries skipped.
type ServiceRestoreReport = service.RestoreReport

// SnapshotService persists every configuration admitted in the service into
// dir: one entries file holding each key's journal admit record (key,
// configuration text, compiled artifact), plus a manifest of keys that
// commits it. See docs/SERVER.md for the on-disk format.
func SnapshotService(s *Service, dir string) (*ServiceSnapshotManifest, error) {
	return s.Snapshot(dir)
}

// RestoreService re-admits a snapshot directory into the service, loading
// each entry's artifact (LoadElection) instead of reclassifying. Damaged
// or rejected entries are skipped and reported
// (ServiceRestoreReport.Skipped), never fatal; only a manifest-level
// failure errors.
func RestoreService(s *Service, dir string) (*ServiceRestoreReport, error) {
	return s.Restore(dir)
}

// ServiceRestoreSkip is one snapshot entry a restore could not re-admit
// (key + reason); the undamaged entries still boot.
type ServiceRestoreSkip = service.RestoreSkip

// ServiceWALOptions configure the durable registry's admission journal:
// directory, fsync policy, and checkpoint triggers. See OpenService.
type ServiceWALOptions = service.WALOptions

// ServiceRecoveryReport summarizes what OpenService brought back: the
// checkpoint restore, the journal replay (admits, evicts, per-record
// faults), and every piece of damage tolerated along the way. Clean()
// reports a loss-free boot.
type ServiceRecoveryReport = service.RecoveryReport

// ServiceWALStats is an atomics-only snapshot of the journal's counters
// (appends, sync lag, segment count, checkpoints), as returned by
// (*Service).WALStats and served under GET /v1/stats.
type ServiceWALStats = service.WALStats

// WALSyncPolicy selects when journal appends reach stable storage:
// WALSyncAlways (fsync before the append returns), WALSyncBatch
// (write-through per record, background fsync timer — survives kill -9,
// not power loss), WALSyncOff (in-process buffer).
type WALSyncPolicy = wal.SyncPolicy

// The journal fsync policies.
const (
	WALSyncAlways = wal.SyncAlways
	WALSyncBatch  = wal.SyncBatch
	WALSyncOff    = wal.SyncOff
)

// ParseWALSyncPolicy parses "always", "batch" or "off".
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// OpenService starts a durable election service: every acknowledged
// admission and eviction is journaled to a write-ahead log in
// opts.WAL.Dir before the call returns (per the fsync policy), a
// background checkpoint snapshots the registry and truncates the journal,
// and this call replays checkpoint + journal back into a serving registry
// — tolerating torn or corrupt records with a per-record report instead
// of refusing to boot. The election serve path is untouched: steady-state
// Elect stays zero-alloc with the journal enabled.
func OpenService(opts ServiceOptions) (*Service, *ServiceRecoveryReport, error) {
	return service.Open(opts)
}

// CheckpointService snapshots the durable service into its checkpoint
// directory and truncates the journal (rotate → snapshot → delete frozen
// segments; crash-safe in every window). The background checkpointer does
// this on a timer; call it explicitly before planned maintenance.
func CheckpointService(s *Service) error { return s.Checkpoint() }

// Server is the HTTP/JSON front-end over a Service: register, elect, batch
// elect, evict, stats and health endpoints with per-endpoint counters and
// graceful shutdown. cmd/anonradiod is the deployable daemon around it; see
// internal/server and docs/SERVER.md for the API.
type Server = server.Server

// ServerOptions configure a Server (body size cap, batch size cap, header
// read timeout); the zero value is ready to use.
type ServerOptions = server.Options

// NewServer builds an HTTP server over svc. The service must outlive the
// server; stop the server with Shutdown (the service's Close stays the
// caller's job, typically after a final SnapshotService).
func NewServer(svc *Service, opts ServerOptions) *Server { return server.New(svc, opts) }

// ServerStatsResponse is the body of GET /v1/stats: shard counters,
// admission pipeline counters, WAL counters, per-key fault counters (under
// a fault plan) and per-endpoint request/latency rows.
type ServerStatsResponse = server.StatsResponse

// ServerAdmissionStatus is the body of GET /v1/register/status/{key} for a
// polled asynchronous admission.
type ServerAdmissionStatus = server.AdmissionStatusResponse

// ServerHealthResponse is the body of GET /healthz.
type ServerHealthResponse = server.HealthResponse

// FleetRing is a rendezvous-hash placement over a set of node names: every
// key is owned by exactly one node, the mapping is a pure function of the
// membership (no state to gossip or persist), and adding or removing one
// node moves only the keys that node gains or loses — never a reshuffle of
// everyone else's placement.
type FleetRing = fleet.Ring

// NewFleetRing builds a placement ring over the given node names.
func NewFleetRing(nodes ...string) *FleetRing { return fleet.NewRing(nodes...) }

// FleetClient talks to one anonradiod over HTTP: register (sync or async),
// elect, batch elect, evict, stats, health, and the artifact-shipping
// endpoints, with the server's status codes mapped back onto the sentinel
// errors (so errors.Is(err, ErrUnknownKey) works across the network).
// Register, elect and batch travel as binary wire frames and answer the
// Wire* messages; the router's register of an artifact that embeds an
// earlier release's phase table travels as JSON, the one encoding that
// carries the table. It is the one client implementation shared by the
// router daemon, the examples and the CI smokes.
type FleetClient = fleet.Client

// FleetClientOptions configure a FleetClient (HTTP transport,
// retry-on-busy policy); the zero value is ready to use.
type FleetClientOptions = fleet.ClientOptions

// NewFleetClient builds a client for the node at base ("http://host:port").
func NewFleetClient(base string, opts FleetClientOptions) *FleetClient {
	return fleet.NewClient(base, opts)
}

// Fleet routes registry operations across a ring of anonradiod nodes:
// registrations and elections go to each key's owning node, batch
// elections are split per owner and reassembled in submission order, and
// membership changes migrate keys by shipping their compiled artifacts,
// which the receiving node loads instead of reclassifying.
// cmd/anonradio-router is the deployable front door around it.
type Fleet = fleet.Fleet

// NewFleet builds a fleet over the node base URLs.
func NewFleet(nodes []string, opts FleetClientOptions) (*Fleet, error) {
	return fleet.New(nodes, opts)
}

// FleetRouter is the fleet's HTTP front door: the same /v1/* surface a
// single node serves, routed per key, plus per-node health probing that
// drops dead nodes from the ring and re-registers their keys from the
// configuration cache onto the survivors.
type FleetRouter = fleet.Router

// FleetRouterOptions configure a FleetRouter (probe cadence and loss
// threshold, batch and body caps); the zero value is ready to use.
type FleetRouterOptions = fleet.RouterOptions

// NewFleetRouter builds the front door over f; call Start to begin health
// probing and Stop to halt it.
func NewFleetRouter(f *Fleet, opts FleetRouterOptions) *FleetRouter {
	return fleet.NewRouter(f, opts)
}

// BuildArena is a reusable scratch arena for building dedicated algorithms:
// repeated builds reuse the classifier scratch and the canonical-run
// simulator, keeping only the allocations genuinely retained by each built
// algorithm. A BuildArena is not safe for concurrent use.
type BuildArena = election.BuildArena

// NewBuildArena returns an empty build arena.
func NewBuildArena() *BuildArena { return election.NewBuildArena() }

// BuildElectionInto is BuildElection with an explicit reusable build arena
// (nil behaves like BuildElection).
func BuildElectionInto(a *BuildArena, cfg *Config) (*Dedicated, error) {
	return election.BuildDedicatedInto(a, cfg)
}

// ComputeMetrics derives execution metrics from a traced simulation result
// (one produced with recordTrace=true).
func ComputeMetrics(res *SimulationResult) (*ExecutionMetrics, error) {
	return radio.ComputeMetrics(res)
}

// ExecutionTimeline is a per-node, per-round character grid of a traced
// execution (who slept, transmitted, heard a message or noise, terminated).
type ExecutionTimeline = radio.Timeline

// BuildTimeline renders a traced simulation result as a per-node timeline
// grid.
func BuildTimeline(res *SimulationResult) (*ExecutionTimeline, error) {
	return radio.BuildTimeline(res)
}

// ClassifyOptions control how much of a Classifier run the report
// materializes; the zero value is the lean mode used by batch surveys (only
// the final partition is kept), while RecordSnapshots true reproduces the
// full per-iteration history of Classify.
type ClassifyOptions = core.ClassifyOptions

// ClassifyTurbo is the throughput-engineered classifier: flat packed label
// arenas, integer-hashed refinement and reusable scratch state. With
// ClassifyOptions{RecordSnapshots: true} its report carries the same
// verdict, leader, iteration count, partition sequence and lists as
// Classify's (a property test enforces this; only the Stats operation
// counters are implementation-specific); the lean zero value skips the
// per-iteration snapshot clones for callers that only need the verdict,
// leader and lists.
func ClassifyTurbo(cfg *Config, opts ClassifyOptions) (*Report, error) {
	return core.ClassifyTurbo(cfg, opts)
}

// BatchResult is the outcome of classifying one configuration of a batch.
type BatchResult = core.BatchResult

// ClassifyBatch classifies many configurations in parallel on a worker pool
// (workers < 1 selects GOMAXPROCS); each worker reuses one turbo scratch
// arena. Results are indexed like the input and failures are reported per
// configuration.
func ClassifyBatch(cfgs []*Config, opts ClassifyOptions, workers int) []BatchResult {
	return core.ClassifyBatch(cfgs, opts, workers)
}

// FeasibilitySurvey aggregates the verdicts of a parallel feasibility
// survey.
type FeasibilitySurvey = core.Survey

// SurveyParallel classifies count configurations produced by gen (gen(i)
// builds configuration i inside the worker pool, so it must be safe for
// concurrent calls with distinct arguments) and aggregates the verdicts.
// Deterministic generators make the survey reproducible regardless of
// worker count.
func SurveyParallel(count, workers int, gen func(i int) *Config) (*FeasibilitySurvey, error) {
	return core.SurveyParallel(count, workers, gen)
}

// SimulationOptions control a simulation run (round limit, tracing, fault
// plan).
type SimulationOptions = radio.Options

// Simulator is a reusable simulation engine bound to one configuration:
// buffers (including the returned Result) are reused across runs, making
// repeated simulations allocation-free in steady state. The Result of a Run
// is valid until the next Run on the same Simulator.
type Simulator = radio.Simulator

// NewSimulator builds a reusable single-threaded engine for cfg.
func NewSimulator(cfg *Config) (*Simulator, error) { return radio.NewSimulator(cfg) }

// FaultPlan is a seeded description of a misbehaving radio medium: a
// per-link per-round message-drop probability, a per-node per-round
// spurious-collision (noise) probability, and per-node outage windows.
// Set it on SimulationOptions.Fault (or ServiceOptions.Fault for a served
// registry) to run elections over a lossy medium. Every fault decision is
// a pure function of (Seed, round, node), so the same plan reproduces the
// same faulted execution on every run; a nil or all-zero plan leaves the
// medium untouched, bit-identically. See internal/radio's fault seam and
// experiment E18.
type FaultPlan = radio.FaultPlan

// FaultOutage is one per-node radio outage window [From, To) in global
// rounds: the node neither delivers nor receives while down, though its
// tag-driven spontaneous wake-up still fires (the tag is a clock, not a
// radio event).
type FaultOutage = radio.Outage

// RunExperiments regenerates every experiment table (E1-E7, E9-E11, E18,
// A1) and writes them to w. With quick=true a reduced parameter sweep is
// used.
func RunExperiments(w io.Writer, quick bool, seed int64) error {
	return harness.RunAll(harness.Options{Quick: quick, Seed: seed}, w)
}

// RunExperiment runs a single experiment by ID ("E1".."E7", "E9".."E11",
// "E18", "A1") and returns its table.
func RunExperiment(id string, quick bool, seed int64) (*ExperimentTable, error) {
	exp, ok := harness.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("anonradio: unknown experiment %q", id)
	}
	return exp.Run(harness.Options{Quick: quick, Seed: seed})
}

// WireContentType is the Content-Type that selects the binary wire encoding
// on the HTTP server's register/elect/batch endpoints: a request carrying it
// is decoded as one length-prefixed CRC-checked frame and answered in kind,
// on the same routes as JSON. See docs/SERVER.md for the frame layout.
const WireContentType = server.ContentTypeBinary

// WireFrameType discriminates binary wire frames.
type WireFrameType = wire.FrameType

// The wire frame types a binary HTTP client exchanges.
const (
	WireFrameElectRequest     = wire.FrameElectRequest
	WireFrameOutcome          = wire.FrameOutcome
	WireFrameBatchRequest     = wire.FrameBatchRequest
	WireFrameBatchResponse    = wire.FrameBatchResponse
	WireFrameRegisterRequest  = wire.FrameRegisterRequest
	WireFrameRegisterResponse = wire.FrameRegisterResponse
	WireFrameError            = wire.FrameError
)

// The serve-path messages, one type each for both encodings (see
// internal/wire): elect request, election outcome, batch request/response,
// register request/response, and the body of an error answer. Their JSON
// tags give the JSON bodies; AppendTo/DecodeFrom give the frame payloads.
type (
	WireElectRequest     = wire.ElectRequest
	WireOutcome          = wire.Outcome
	WireBatchRequest     = wire.BatchRequest
	WireBatchResponse    = wire.BatchResponse
	WireRegisterRequest  = wire.RegisterRequest
	WireRegisterResponse = wire.RegisterResponse
	WireErrorMessage     = wire.ErrorMessage
)

// The frame constructors and the frame decoder of the binary wire encoding,
// re-exported for clients that speak it over HTTP (FleetClient is the
// worked example).
var (
	AppendWireElectRequestFrame    = wire.AppendElectRequestFrame
	AppendWireBatchRequestFrame    = wire.AppendBatchRequestFrame
	AppendWireRegisterRequestFrame = wire.AppendRegisterRequestFrame
	DecodeWireFrame                = wire.DecodeFrame
)

// ExperimentIDs lists the available experiment identifiers in order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range harness.All() {
		ids = append(ids, e.ID)
	}
	return ids
}
