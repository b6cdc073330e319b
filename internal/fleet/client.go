package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"anonradio/internal/election"
	"anonradio/internal/server"
	"anonradio/internal/wire"
)

// This file is the one client implementation everything that talks to an
// anonradiod shares: the Fleet router, the anonradio-router daemon, the
// http-client example and the CI smokes. It sends register, elect and batch
// as binary wire frames, the one exception being a register whose artifact
// embeds an earlier release's phase table: frames carry no table
// (wire.AppendArtifact), so that register goes as JSON, the one encoding
// that still carries the table the node must compare with the one it
// compiles. Stats, health, admission status and evict are JSON-only routes.
// The client maps the server's status codes back onto the service/election
// sentinel errors, so callers keep using errors.Is(err,
// service.ErrUnknownKey) across the network boundary exactly as they would
// in process.

// ClientOptions configure a node client; the zero value is ready to use.
type ClientOptions struct {
	// HTTP is the underlying HTTP client; nil selects http.DefaultClient.
	HTTP *http.Client
	// BusyRetries is how many extra attempts a request refused with 429
	// (service.ErrAdmissionBusy — the admission queue is full) gets, each
	// sleeping the server's Retry-After first. 0 disables retrying.
	BusyRetries int
	// MaxRetryAfter caps the per-attempt Retry-After sleep; <= 0 selects
	// 2s (the server clamps its own hint to [1s, 60s], but a routing tier
	// would rather re-ask than stall a full minute on one node).
	MaxRetryAfter time.Duration
}

func (o ClientOptions) httpClient() *http.Client {
	if o.HTTP != nil {
		return o.HTTP
	}
	return http.DefaultClient
}

func (o ClientOptions) maxRetryAfter() time.Duration {
	if o.MaxRetryAfter > 0 {
		return o.MaxRetryAfter
	}
	return 2 * time.Second
}

// Client talks to one anonradiod over HTTP. Create it with NewClient; the
// zero value is unusable. A Client is safe for concurrent use (its only
// state is the base URL and options).
type Client struct {
	base string
	opts ClientOptions
}

// NewClient builds a client for the node at base ("http://host:port", no
// trailing slash required).
func NewClient(base string, opts ClientOptions) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, opts: opts}
}

// APIError is the client-side form of a non-2xx server answer. It unwraps
// to the service/election sentinels its status maps to (service.ErrUnknownKey,
// service.ErrAdmissionBusy, service.ErrClosed, service.ErrInvalidConfig,
// and for 422 the ErrInfeasible, ErrRoundOverflow or ErrInvalidArtifact it
// names), so errors.Is works across the network boundary.
type APIError struct {
	// Node is the base URL of the node that answered.
	Node string
	// Status is the HTTP status code.
	Status int
	// Message is the server's error text.
	Message string
	// RetryAfter is the parsed Retry-After hint (429 only; 0 when absent).
	RetryAfter time.Duration
}

// Error names the status and message but not the node: a front door may
// hand the error to its clients (a routed batch puts it in the node's
// outcome slots), and they are not told node addresses.
func (e *APIError) Error() string {
	return fmt.Sprintf("node answered %d: %s", e.Status, e.Message)
}

// Answer returns the node's status, message and Retry-After hint, which a
// front door that made the call relays as they are (server.Backend).
func (e *APIError) Answer() (status int, message string, retryAfter time.Duration) {
	return e.Status, e.Message, e.RetryAfter
}

// Unwrap maps the HTTP status back onto the in-process sentinel errors
// through the server's status table (server.Sentinels): to each sentinel
// paired with the status whose text the node's message carries, so a 422,
// which has several causes, unwraps to the ones it names.
func (e *APIError) Unwrap() []error { return server.Sentinels(e.Status, e.Message) }

// TransportError is a call that got no answer from a node: the request
// could not be sent, or the response could not be read. Its message names
// the call but not the node, since a front door relays it to clients (a
// routed request answers 502 with it, a routed batch puts it in the node's
// outcome slots); Node and Err keep the address and the cause.
type TransportError struct {
	// Node is the base URL of the node that was called.
	Node string
	// Method and Path name the call.
	Method, Path string
	// Err is the transport failure, which names the node.
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("fleet: %s %s: no answer from the node", e.Method, e.Path)
}

// Unwrap returns the transport failure.
func (e *TransportError) Unwrap() error { return e.Err }

// retryAfter parses a Retry-After header (the server only emits the
// delta-seconds form).
func retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// roundTrip posts body (or issues a bodiless method) and returns the
// response body, status and Retry-After hint, retrying 429s per the
// options. The returned error is non-nil only for transport failures, as a
// *TransportError; HTTP-level failures come back as a body + status for
// the caller to decode in its encoding.
func (c *Client) roundTrip(method, path, contentType string, body []byte) ([]byte, int, time.Duration, error) {
	noAnswer := func(err error) ([]byte, int, time.Duration, error) {
		return nil, 0, 0, &TransportError{Node: c.base, Method: method, Path: path, Err: err}
	}
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return noAnswer(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.opts.httpClient().Do(req)
		if err != nil {
			return noAnswer(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return noAnswer(err)
		}
		ra := retryAfter(resp)
		if resp.StatusCode == http.StatusTooManyRequests && attempt < c.opts.BusyRetries {
			wait := ra
			if max := c.opts.maxRetryAfter(); wait <= 0 || wait > max {
				wait = max
			}
			time.Sleep(wait)
			continue
		}
		return data, resp.StatusCode, ra, nil
	}
}

// apiErr decodes a non-2xx JSON body into an APIError.
func (c *Client) apiErr(data []byte, status int, ra time.Duration) error {
	var er wire.ErrorMessage
	msg := string(data)
	if err := json.Unmarshal(data, &er); err == nil && er.Error != "" {
		msg = er.Error
	}
	return &APIError{Node: c.base, Status: status, Message: msg, RetryAfter: ra}
}

// callJSON round-trips one JSON request; out may be nil.
func (c *Client) callJSON(method, path string, in, out any) error {
	var body []byte
	contentType := ""
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("fleet: encoding %s %s request: %w", method, path, err)
		}
		body, contentType = b, "application/json"
	}
	data, status, ra, err := c.roundTrip(method, path, contentType, body)
	if err != nil {
		return err
	}
	if status < 200 || status >= 300 {
		return c.apiErr(data, status, ra)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("fleet: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// callFrame posts one wire frame and decodes the payload of the response
// frame, which must be of type want, into out; error frames (and non-frame
// bodies) become errors with the status mapping applied.
func (c *Client) callFrame(path string, frame []byte, want wire.FrameType, out interface{ DecodeFrom([]byte) error }) error {
	data, status, ra, err := c.roundTrip(http.MethodPost, path, server.ContentTypeBinary, frame)
	if err != nil {
		return err
	}
	typ, payload, rest, derr := wire.DecodeFrame(data)
	if status < 200 || status >= 300 {
		msg := string(data)
		if derr == nil && typ == wire.FrameError {
			var em wire.ErrorMessage
			if em.DecodeFrom(payload) == nil {
				msg = em.Error
			}
		}
		return &APIError{Node: c.base, Status: status, Message: msg, RetryAfter: ra}
	}
	switch {
	case derr != nil:
		return fmt.Errorf("fleet: decoding %s response frame: %w", path, derr)
	case len(rest) != 0:
		return fmt.Errorf("fleet: %s response carries trailing data after the frame", path)
	case typ != want:
		return fmt.Errorf("fleet: %s answered a %v frame, want %v", path, typ, want)
	}
	if err := out.DecodeFrom(payload); err != nil {
		return fmt.Errorf("fleet: decoding %s response: %w", path, err)
	}
	return nil
}

// Healthz probes GET /healthz.
func (c *Client) Healthz() (server.HealthResponse, error) {
	var h server.HealthResponse
	err := c.callJSON(http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Register admits cfgText (the internal/config text format) under key,
// synchronously.
func (c *Client) Register(key, cfgText string) (wire.RegisterResponse, error) {
	return c.register(key, cfgText, nil, false)
}

// RegisterAsync queues the admission and returns the 202 response; poll
// AdmissionStatus for the outcome.
func (c *Client) RegisterAsync(key, cfgText string) (wire.RegisterResponse, error) {
	return c.register(key, cfgText, nil, true)
}

// register admits cfgText under key, loading artifact when there is one
// (the node answers 422 for an artifact that contradicts itself or the
// configuration).
func (c *Client) register(key, cfgText string, artifact *election.Compiled, async bool) (wire.RegisterResponse, error) {
	req := wire.RegisterRequest{Key: key, Config: cfgText, Artifact: artifact, Async: async}
	var resp wire.RegisterResponse
	var err error
	if artifact != nil && artifact.PhaseTable != nil {
		// A frame would drop the earlier release's table the node checks.
		err = c.callJSON(http.MethodPost, "/v1/register", &req, &resp)
	} else {
		err = c.callFrame("/v1/register", wire.AppendRegisterRequestFrame(nil, &req), wire.FrameRegisterResponse, &resp)
	}
	return resp, err
}

// AdmissionStatus polls GET /v1/register/status/{key}.
func (c *Client) AdmissionStatus(key string) (server.AdmissionStatusResponse, error) {
	var resp server.AdmissionStatusResponse
	err := c.callJSON(http.MethodGet, "/v1/register/status/"+url.PathEscape(key), nil, &resp)
	return resp, err
}

// Elect serves one election for key.
func (c *Client) Elect(key string) (wire.Outcome, error) {
	var out wire.Outcome
	err := c.callFrame("/v1/elect", wire.AppendElectRequestFrame(nil, &wire.ElectRequest{Key: key}), wire.FrameOutcome, &out)
	return out, err
}

// ElectBatch serves one election per key; outcome i corresponds to
// keys[i], with per-key failures in their outcome slot (as on the server).
func (c *Client) ElectBatch(keys []string) (wire.BatchResponse, error) {
	var resp wire.BatchResponse
	err := c.callFrame("/v1/elect/batch", wire.AppendBatchRequestFrame(nil, &wire.BatchRequest{Keys: keys}), wire.FrameBatchResponse, &resp)
	return resp, err
}

// Evict removes key from the node.
func (c *Client) Evict(key string) error {
	return c.callJSON(http.MethodDelete, "/v1/configs/"+url.PathEscape(key), nil, nil)
}

// Stats fetches GET /v1/stats.
func (c *Client) Stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	err := c.callJSON(http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// FetchArtifact exports key's compiled artifact from the node as one
// binary WAL-admit frame — the fleet migration unit — verbatim, ready to
// hand to AdmitArtifact on another node.
func (c *Client) FetchArtifact(key string) ([]byte, error) {
	data, status, ra, err := c.roundTrip(http.MethodGet, "/v1/artifact/"+url.PathEscape(key), "", nil)
	if err != nil {
		return nil, err
	}
	if status < 200 || status >= 300 {
		return nil, c.apiErr(data, status, ra)
	}
	// Sanity-check the frame now: shipping a corrupt artifact to the
	// receiving node would fail there with a less attributable error.
	typ, _, rest, derr := wire.DecodeFrame(data)
	if derr != nil || typ != wire.FrameWALAdmit || len(rest) != 0 {
		return nil, fmt.Errorf("fleet: the node served an invalid artifact frame for %q", key)
	}
	return data, nil
}

// AdmitArtifact admits a WAL-admit frame (as served by FetchArtifact) on
// the node, which loads its artifact instead of reclassifying.
func (c *Client) AdmitArtifact(frame []byte) (wire.RegisterResponse, error) {
	var resp wire.RegisterResponse
	err := c.callFrame("/v1/admit/artifact", frame, wire.FrameRegisterResponse, &resp)
	return resp, err
}
