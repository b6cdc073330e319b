package wire

import (
	"encoding/binary"

	"anonradio/internal/election"
)

// This file holds the serve-path messages: the one declaration of each
// request and answer of POST /v1/register, /v1/elect and /v1/elect/batch
// and of an error answer. Each type is both encodings' form: its JSON tags
// give the body of a JSON request or answer, and its AppendTo (or Append*
// frame constructor) and DecodeFrom give the payload of a binary frame;
// DecodeFrom must consume the payload exactly.

// ElectRequest is the body of POST /v1/elect: one election on a registered
// configuration key.
type ElectRequest struct {
	// Key is the registry key to elect on.
	Key string `json:"key"`
}

// AppendTo appends the encoded payload (no frame) to dst.
func (m *ElectRequest) AppendTo(dst []byte) []byte { return appendString(dst, m.Key) }

// DecodeFrom decodes a payload produced by AppendTo.
func (m *ElectRequest) DecodeFrom(p []byte) error {
	r := reader{p}
	var err error
	if m.Key, err = r.string(); err != nil {
		return err
	}
	return r.finish()
}

// AppendElectRequestFrame appends the framed request to dst.
func AppendElectRequestFrame(dst []byte, m *ElectRequest) []byte {
	dst, mark := beginFrame(dst, FrameElectRequest)
	dst = m.AppendTo(dst)
	return endFrame(dst, mark)
}

// Outcome flag bits.
const (
	outcomeElected  = 1 << 0
	outcomeHasError = 1 << 1
)

// Outcome is one served election: the answer of POST /v1/elect and one
// slot of a BatchResponse.
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

// AppendTo appends the encoded payload (no frame) to dst.
func (m *Outcome) AppendTo(dst []byte) []byte {
	dst = appendString(dst, m.Key)
	var flags byte
	if m.Elected {
		flags |= outcomeElected
	}
	if m.Error != "" {
		flags |= outcomeHasError
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, int64(m.Leader))
	dst = binary.AppendVarint(dst, int64(m.Rounds))
	if m.Error != "" {
		dst = appendString(dst, m.Error)
	}
	return dst
}

func (m *Outcome) decode(r *reader) error {
	var err error
	if m.Key, err = r.string(); err != nil {
		return err
	}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	m.Elected = flags&outcomeElected != 0
	if m.Leader, err = r.svarintInt(); err != nil {
		return err
	}
	if m.Rounds, err = r.svarintInt(); err != nil {
		return err
	}
	m.Error = ""
	if flags&outcomeHasError != 0 {
		if m.Error, err = r.string(); err != nil {
			return err
		}
	}
	return nil
}

// DecodeFrom decodes a payload produced by AppendTo.
func (m *Outcome) DecodeFrom(p []byte) error {
	r := reader{p}
	if err := m.decode(&r); err != nil {
		return err
	}
	return r.finish()
}

// AppendOutcomeFrame appends the framed outcome to dst.
func AppendOutcomeFrame(dst []byte, m *Outcome) []byte {
	dst, mark := beginFrame(dst, FrameOutcome)
	dst = m.AppendTo(dst)
	return endFrame(dst, mark)
}

// BatchRequest is the body of POST /v1/elect/batch: one election per key.
type BatchRequest struct {
	// Keys are the registry keys to elect on; outcome i corresponds to
	// keys[i].
	Keys []string `json:"keys"`
}

// AppendTo appends the encoded payload (no frame) to dst.
func (m *BatchRequest) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Keys)))
	for _, k := range m.Keys {
		dst = appendString(dst, k)
	}
	return dst
}

// DecodeFrom decodes a payload produced by AppendTo. The Keys slice is
// reused when it has capacity, so a pooled BatchRequest decodes without
// reallocating the slice.
func (m *BatchRequest) DecodeFrom(p []byte) error {
	r := reader{p}
	n, err := r.count(1)
	if err != nil {
		return err
	}
	if cap(m.Keys) >= n {
		m.Keys = m.Keys[:n]
	} else {
		m.Keys = make([]string, n)
	}
	for i := range m.Keys {
		if m.Keys[i], err = r.string(); err != nil {
			return err
		}
	}
	return r.finish()
}

// AppendBatchRequestFrame appends the framed request to dst.
func AppendBatchRequestFrame(dst []byte, m *BatchRequest) []byte {
	dst, mark := beginFrame(dst, FrameBatchRequest)
	dst = m.AppendTo(dst)
	return endFrame(dst, mark)
}

// BatchResponse is the answer of POST /v1/elect/batch. The request itself
// succeeds (200) whenever it was well-formed; per-key failures are reported
// in their outcome slot and counted in Failures.
type BatchResponse struct {
	// Outcomes has one entry per submitted key, in submission order.
	Outcomes []Outcome `json:"outcomes"`
	// Failures counts outcomes whose Error is set.
	Failures int `json:"failures"`
}

// AppendTo appends the encoded payload (no frame) to dst.
func (m *BatchResponse) AppendTo(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(m.Failures))
	dst = binary.AppendUvarint(dst, uint64(len(m.Outcomes)))
	for i := range m.Outcomes {
		dst = m.Outcomes[i].AppendTo(dst)
	}
	return dst
}

// DecodeFrom decodes a payload produced by AppendTo, reusing the Outcomes
// slice when it has capacity.
func (m *BatchResponse) DecodeFrom(p []byte) error {
	r := reader{p}
	var err error
	if m.Failures, err = r.svarintInt(); err != nil {
		return err
	}
	// An outcome is at least 4 bytes (empty key, flags, leader, rounds).
	n, err := r.count(4)
	if err != nil {
		return err
	}
	if cap(m.Outcomes) >= n {
		m.Outcomes = m.Outcomes[:n]
	} else {
		m.Outcomes = make([]Outcome, n)
	}
	for i := range m.Outcomes {
		if err = m.Outcomes[i].decode(&r); err != nil {
			return err
		}
	}
	return r.finish()
}

// AppendBatchResponseFrame appends the framed response to dst.
func AppendBatchResponseFrame(dst []byte, m *BatchResponse) []byte {
	dst, mark := beginFrame(dst, FrameBatchResponse)
	dst = m.AppendTo(dst)
	return endFrame(dst, mark)
}

// RegisterRequest flag bits.
const (
	registerAsync       = 1 << 0
	registerHasArtifact = 1 << 1
)

// RegisterRequest is the body of POST /v1/register: admit a configuration
// under a key, built from its text or loaded from a compiled artifact.
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
	// contradicts itself or the configuration answers 422. A frame carries
	// no phase table (AppendArtifact), so an earlier release's artifact
	// whose table must be checked travels as JSON.
	Artifact *election.Compiled `json:"artifact,omitempty"`
	// Async selects the asynchronous admission flow: the server answers 202
	// as soon as the registration is queued on the builder pool, and the
	// client polls GET /v1/register/status/{key} for the outcome.
	Async bool `json:"async,omitempty"`
}

// AppendRegisterRequestFrame appends the framed request to dst.
func AppendRegisterRequestFrame(dst []byte, m *RegisterRequest) []byte {
	dst, mark := beginFrame(dst, FrameRegisterRequest)
	var flags byte
	if m.Async {
		flags |= registerAsync
	}
	if m.Artifact != nil {
		flags |= registerHasArtifact
	}
	dst = append(dst, flags)
	dst = appendString(dst, m.Key)
	dst = appendString(dst, m.Config)
	if m.Artifact != nil {
		dst = AppendArtifact(dst, m.Artifact)
	}
	return endFrame(dst, mark)
}

// DecodeFrom decodes a payload produced by AppendRegisterRequestFrame.
func (m *RegisterRequest) DecodeFrom(p []byte) error {
	r := reader{p}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	m.Async = flags&registerAsync != 0
	if m.Key, err = r.string(); err != nil {
		return err
	}
	if m.Config, err = r.string(); err != nil {
		return err
	}
	m.Artifact = nil
	if flags&registerHasArtifact != 0 {
		if m.Artifact, err = decodeArtifact(&r); err != nil {
			return err
		}
	}
	return r.finish()
}

// RegisterResponse is the answer of a successful POST /v1/register or
// POST /v1/admit/artifact.
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

// AppendTo appends the encoded payload (no frame) to dst.
func (m *RegisterResponse) AppendTo(dst []byte) []byte {
	dst = appendString(dst, m.Key)
	dst = appendString(dst, m.Source)
	dst = appendString(dst, m.Status)
	return appendString(dst, m.StatusURL)
}

// DecodeFrom decodes a payload produced by AppendTo.
func (m *RegisterResponse) DecodeFrom(p []byte) error {
	r := reader{p}
	var err error
	if m.Key, err = r.string(); err != nil {
		return err
	}
	if m.Source, err = r.string(); err != nil {
		return err
	}
	if m.Status, err = r.string(); err != nil {
		return err
	}
	if m.StatusURL, err = r.string(); err != nil {
		return err
	}
	return r.finish()
}

// AppendRegisterResponseFrame appends the framed response to dst.
func AppendRegisterResponseFrame(dst []byte, m *RegisterResponse) []byte {
	dst, mark := beginFrame(dst, FrameRegisterResponse)
	dst = m.AppendTo(dst)
	return endFrame(dst, mark)
}

// ErrorMessage is the body of every non-2xx answer of a /v1/* route, in
// either encoding (the HTTP status carries the code).
type ErrorMessage struct {
	// Error is the human-readable failure.
	Error string `json:"error"`
}

// AppendTo appends the encoded payload (no frame) to dst.
func (m *ErrorMessage) AppendTo(dst []byte) []byte { return appendString(dst, m.Error) }

// DecodeFrom decodes a payload produced by AppendTo.
func (m *ErrorMessage) DecodeFrom(p []byte) error {
	r := reader{p}
	var err error
	if m.Error, err = r.string(); err != nil {
		return err
	}
	return r.finish()
}

// AppendErrorFrame appends a framed error message to dst.
func AppendErrorFrame(dst []byte, msg string) []byte {
	dst, mark := beginFrame(dst, FrameError)
	m := ErrorMessage{Error: msg}
	dst = m.AppendTo(dst)
	return endFrame(dst, mark)
}
