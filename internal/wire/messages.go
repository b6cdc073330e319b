package wire

import (
	"encoding/binary"

	"anonradio/internal/election"
)

// This file holds the serve-path messages: the binary twins of the server's
// JSON request/response types, with the same fields in the same order, so
// the server converts between the two directly. Every message has an
// AppendTo that appends its payload to a growing buffer and a DecodeFrom
// that must consume the payload exactly.

// ElectRequest asks for one election on a registered configuration key.
type ElectRequest struct {
	Key string
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

// Outcome is one election result; the binary twin of server.Outcome.
type Outcome struct {
	Key     string
	Elected bool
	Leader  int
	Rounds  int
	Error   string
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

// BatchRequest asks for one election per key.
type BatchRequest struct {
	Keys []string
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

// BatchResponse carries one Outcome per requested key, in request order.
type BatchResponse struct {
	Outcomes []Outcome
	Failures int
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

// RegisterRequest admits a configuration; the binary twin of
// server.RegisterRequest. Config (source text) is always required;
// Artifact (a precompiled algorithm) is optional, mirroring the JSON
// contract.
type RegisterRequest struct {
	Key      string
	Config   string
	Artifact *election.Compiled
	Async    bool
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

// RegisterResponse is the binary twin of server.RegisterResponse.
type RegisterResponse struct {
	Key       string
	Source    string
	Status    string
	StatusURL string
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

// ErrorMessage is the binary twin of server.ErrorResponse: the body of any
// non-2xx binary-negotiated response (the HTTP status carries the code).
type ErrorMessage struct {
	Error string
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
