package server

import (
	"sync/atomic"
	"time"
)

// endpoint indexes the fixed set of instrumented endpoints.
type endpoint int

const (
	epRegister endpoint = iota
	epRegisterStatus
	epElect
	epElectBatch
	epEvict
	epArtifactExport
	epAdmitArtifact
	epStats
	epHealth
	epCount
)

// endpointNames are the stable names the stats endpoint reports; they match
// the route patterns so operators can correlate counters with requests.
var endpointNames = [epCount]string{
	epRegister:       "POST /v1/register",
	epRegisterStatus: "GET /v1/register/status/{key}",
	epElect:          "POST /v1/elect",
	epElectBatch:     "POST /v1/elect/batch",
	epEvict:          "DELETE /v1/configs/{key}",
	epArtifactExport: "GET /v1/artifact/{key}",
	epAdmitArtifact:  "POST /v1/admit/artifact",
	epStats:          "GET /v1/stats",
	epHealth:         "GET /healthz",
}

// endpointMetrics are one endpoint's counters. All fields are atomics: the
// handler goroutines update them concurrently and the stats endpoint reads
// them without stopping traffic (a stats snapshot is per-counter consistent,
// not cross-counter consistent — good enough for operational counters).
type endpointMetrics struct {
	requests  atomic.Int64 // requests served (including failures)
	failures  atomic.Int64 // requests answered with a non-2xx status
	elections atomic.Int64 // successful elections served (elect/batch only)
	totalNs   atomic.Int64 // cumulative handler latency
	maxNs     atomic.Int64 // worst handler latency observed
}

// observe records one request's latency and outcome.
func (m *endpointMetrics) observe(d time.Duration, failed bool) {
	ns := d.Nanoseconds()
	m.requests.Add(1)
	if failed {
		m.failures.Add(1)
	}
	m.totalNs.Add(ns)
	for {
		cur := m.maxNs.Load()
		if ns <= cur || m.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// EndpointStats is the JSON form of one endpoint's counters, as served by
// GET /v1/stats.
type EndpointStats struct {
	// Endpoint is the route pattern ("POST /v1/elect", ...).
	Endpoint string `json:"endpoint"`
	// Requests counts requests served, including failures.
	Requests int64 `json:"requests"`
	// Failures counts requests answered with a non-2xx status.
	Failures int64 `json:"failures"`
	// Elections counts successful elections served through the endpoint
	// (elect and batch endpoints only; one batch request can serve many).
	Elections int64 `json:"elections,omitempty"`
	// MeanMicros is the mean handler latency in microseconds.
	MeanMicros float64 `json:"mean_us"`
	// MaxMicros is the worst handler latency in microseconds.
	MaxMicros float64 `json:"max_us"`
}

// snapshot renders the counters of endpoint ep.
func (m *endpointMetrics) snapshot(ep endpoint) EndpointStats {
	s := EndpointStats{
		Endpoint:  endpointNames[ep],
		Requests:  m.requests.Load(),
		Failures:  m.failures.Load(),
		Elections: m.elections.Load(),
		MaxMicros: float64(m.maxNs.Load()) / 1e3,
	}
	if s.Requests > 0 {
		s.MeanMicros = float64(m.totalNs.Load()) / float64(s.Requests) / 1e3
	}
	return s
}
