package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// This file is the front door: one handler per /v1/* route, written once
// for both encodings and served over a Backend. A request is decoded in its
// negotiated encoding into one request value (codec.go), validated once,
// handed to the backend, and answered in the same encoding. anonradiod
// serves the routes over its registry (New); anonradio-router serves the
// very same handlers over its fleet (Relay), so strict decoding, 413, 415,
// the status mapping and the response bytes cannot differ between a node
// and the router in front of it. Each front door answers /v1/stats and
// /healthz itself.

// Backend is what the /v1/* routes serve: a *service.Registry in process
// (anonradiod), or a *fleet.Fleet, which forwards each call to the node
// that owns the key (anonradio-router). The methods mean what the
// registry's do.
type Backend interface {
	Admit(a service.Admission) error
	AdmissionStatus(key string) service.AdmissionStatus
	Elect(key string) (service.Outcome, error)
	ElectBatch(keys []string, outs []service.Outcome) ([]service.Outcome, error)
	Evict(key string) (bool, error)
	ExportArtifact(key string) ([]byte, error)
}

// An answered error carries the answer a node gave a routing tier
// (fleet.APIError); the front door relays its status, message and
// Retry-After as they are.
type answered interface {
	error
	Answer() (status int, message string, retryAfter time.Duration)
}

// Relay registers the /v1/* routes on mux, served over b, a backend that
// relays each call to a node (fleet.Fleet): the handlers of a daemon
// without its endpoint counters. An error that carries no node's answer is
// a failed node call and answers 502.
func Relay(mux *http.ServeMux, b Backend, opts Options) {
	d := &frontDoor{b: b, opts: opts.withDefaults(), fallback: http.StatusBadGateway}
	d.route(mux)
}

// frontDoor serves the /v1/* routes over a backend.
type frontDoor struct {
	b    Backend
	opts Options
	// metrics are the daemon's endpoint counters; nil in a router.
	metrics *[epCount]endpointMetrics
	// retryAfter gives the Retry-After of a 429 the backend raised itself
	// (a relayed 429 carries the node's own); nil in a router.
	retryAfter func() int
	// fallback answers an error neither relayed nor in the status table.
	fallback int
}

// route registers the shared routes on mux.
func (d *frontDoor) route(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/register", d.instrument(epRegister, d.register))
	mux.HandleFunc("GET /v1/register/status/{key...}", d.instrument(epRegisterStatus, d.admissionStatus))
	mux.HandleFunc("POST /v1/elect", d.instrument(epElect, d.elect))
	mux.HandleFunc("POST /v1/elect/batch", d.instrument(epElectBatch, d.electBatch))
	mux.HandleFunc("DELETE /v1/configs/{key...}", d.instrument(epEvict, d.evict))
	mux.HandleFunc("GET /v1/artifact/{key...}", d.instrument(epArtifactExport, d.exportArtifact))
	mux.HandleFunc("POST /v1/admit/artifact", d.instrument(epAdmitArtifact, d.admitArtifact))
}

// instrument wraps a handler with the request-body cap and, in a daemon,
// the endpoint's latency/outcome counters.
func (d *frontDoor) instrument(ep endpoint, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, d.opts.MaxBodyBytes)
		}
		if d.metrics == nil {
			h(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		d.metrics[ep].observe(time.Since(start), rec.status >= 400)
	}
}

// served counts successful elections on an endpoint.
func (d *frontDoor) served(ep endpoint, elections int) {
	if d.metrics != nil {
		d.metrics[ep].elections.Add(int64(elections))
	}
}

// fail answers a backend error: with the node's own status, message and
// Retry-After when err carries a node's answer, so a router answers what
// the node did, else with the status the table maps it to, or d.fallback.
// A 429 carries a Retry-After header: the admission queue drains at build
// speed, so a short client-side backoff is the intended reaction.
func (d *frontDoor) fail(c *codec, w http.ResponseWriter, err error) {
	var status, retry int
	var msg string
	var a answered
	if errors.As(err, &a) {
		var ra time.Duration
		status, msg, ra = a.Answer()
		retry = int(ra / time.Second)
	} else {
		status, msg = statusFor(err, d.fallback), err.Error()
		if status == http.StatusTooManyRequests && d.retryAfter != nil {
			retry = d.retryAfter()
		}
	}
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	c.message(w, status, msg)
}

// outcomeJSON converts a served outcome to its wire form.
func outcomeJSON(o service.Outcome) wire.Outcome {
	out := wire.Outcome{Key: o.Key, Elected: o.Elected(), Leader: o.Leader, Rounds: o.Rounds}
	if o.Err != nil {
		out.Error = o.Err.Error()
	}
	return out
}

func (d *frontDoor) register(w http.ResponseWriter, r *http.Request) {
	c := getCodec(binaryRequest(r))
	defer codecs.Put(c)
	var req wire.RegisterRequest
	if !c.decode(w, r, d.opts.MaxBodyBytes, &req, wire.FrameRegisterRequest) {
		return
	}
	if req.Key == "" {
		c.message(w, http.StatusBadRequest, "missing key")
		return
	}
	if req.Config == "" {
		c.message(w, http.StatusBadRequest, "missing config (the text format of internal/config; required even with an artifact)")
		return
	}
	if err := d.b.Admit(service.Admission{Key: req.Key, Config: req.Config, Artifact: req.Artifact, Async: req.Async}); err != nil {
		d.fail(c, w, err)
		return
	}
	resp := wire.RegisterResponse{Key: req.Key, Source: "built", Status: "admitted"}
	if req.Artifact != nil {
		resp.Source = "artifact"
	}
	status := http.StatusOK
	if req.Async {
		status, resp.Status = http.StatusAccepted, "pending"
		// PathEscape keeps keys with reserved characters ('?', '#', '%',
		// spaces) pollable; the mux unescapes the wildcard back to the key.
		resp.StatusURL = "/v1/register/status/" + url.PathEscape(req.Key)
	}
	c.registered(w, status, resp)
}

func (d *frontDoor) admissionStatus(w http.ResponseWriter, r *http.Request) {
	c := getCodec(false)
	defer codecs.Put(c)
	key := r.PathValue("key")
	if key == "" {
		c.message(w, http.StatusBadRequest, "missing key")
		return
	}
	st := d.b.AdmissionStatus(key)
	switch {
	case st.State == service.AdmissionUnknown && st.Err != nil:
		d.fail(c, w, st.Err)
	case st.State == service.AdmissionUnknown:
		d.fail(c, w, fmt.Errorf("%w: no admission recorded for %q", service.ErrUnknownKey, key))
	default:
		resp := AdmissionStatusResponse{Key: key, State: st.State.String()}
		if st.Err != nil {
			resp.Error = st.Err.Error()
		}
		c.sendJSON(w, http.StatusOK, resp)
	}
}

func (d *frontDoor) elect(w http.ResponseWriter, r *http.Request) {
	c := getCodec(binaryRequest(r))
	defer codecs.Put(c)
	c.elect = wire.ElectRequest{}
	if !c.decode(w, r, d.opts.MaxBodyBytes, &c.elect, wire.FrameElectRequest) {
		return
	}
	if c.elect.Key == "" {
		c.message(w, http.StatusBadRequest, "missing key")
		return
	}
	o, err := d.b.Elect(c.elect.Key)
	if err != nil {
		d.fail(c, w, err)
		return
	}
	d.served(epElect, 1)
	out := outcomeJSON(o)
	if c.binary {
		c.sendFrame(w, http.StatusOK, wire.AppendOutcomeFrame(c.out[:0], &out))
		return
	}
	c.sendJSON(w, http.StatusOK, out)
}

func (d *frontDoor) electBatch(w http.ResponseWriter, r *http.Request) {
	c := getCodec(binaryRequest(r))
	defer codecs.Put(c)
	c.batch.Keys = c.batch.Keys[:0]
	if !c.decode(w, r, d.opts.MaxBodyBytes, &c.batch, wire.FrameBatchRequest) {
		return
	}
	keys := c.batch.Keys
	if len(keys) == 0 {
		c.message(w, http.StatusBadRequest, "missing keys")
		return
	}
	if len(keys) > d.opts.MaxBatchKeys {
		c.message(w, http.StatusBadRequest, fmt.Sprintf("batch of %d keys exceeds the limit of %d", len(keys), d.opts.MaxBatchKeys))
		return
	}
	outs, err := d.b.ElectBatch(keys, c.outs[:0])
	c.outs = outs
	// Per-key failures ride in their outcome slots; only a closed registry
	// fails the request itself.
	if errors.Is(err, service.ErrClosed) {
		d.fail(c, w, err)
		return
	}
	failures := 0
	c.wouts = c.wouts[:0]
	for _, o := range outs {
		if o.Err != nil {
			failures++
		}
		c.wouts = append(c.wouts, outcomeJSON(o))
	}
	d.served(epElectBatch, len(outs)-failures)
	resp := wire.BatchResponse{Outcomes: c.wouts, Failures: failures}
	if c.binary {
		c.sendFrame(w, http.StatusOK, wire.AppendBatchResponseFrame(c.out[:0], &resp))
		return
	}
	c.sendJSON(w, http.StatusOK, resp)
}

func (d *frontDoor) evict(w http.ResponseWriter, r *http.Request) {
	c := getCodec(false)
	defer codecs.Put(c)
	key := r.PathValue("key")
	if key == "" {
		c.message(w, http.StatusBadRequest, "missing key")
		return
	}
	evicted, err := d.b.Evict(key)
	switch {
	case err != nil:
		d.fail(c, w, err) // 503 on a closed registry: the key may still be journaled
	case !evicted:
		d.fail(c, w, fmt.Errorf("%w: no configuration registered under %q", service.ErrUnknownKey, key))
	default:
		c.sendJSON(w, http.StatusOK, EvictResponse{Key: key, Evicted: true})
	}
}
