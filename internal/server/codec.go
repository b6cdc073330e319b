package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// This file is the pooled codec every /v1/* route decodes and answers
// through, in either encoding: a request's body is read into pooled memory
// and decoded strictly (json.go), or unwrapped as one wire frame
// (binary.go), and its answer is encoded into a pooled buffer — same
// registry call, same status mapping, bit-identical outcome values — so a
// fleet can migrate client by client with no second port or path. Reusing
// the working memory across requests is what keeps the unbatched elect
// request inside its per-op allocation budget in both encodings (pinned by
// TestJSONElectHandlerAllocs and TestWireElectHandlerAllocs).

// codec is the pooled per-request state of both encodings; a request uses
// the half its encoding needs.
type codec struct {
	binary bool // the request declared ContentTypeBinary

	in  []byte        // request body
	rd  bytes.Reader  // JSON decoder source over in
	buf bytes.Buffer  // JSON response body
	enc *json.Encoder // persistent encoder writing into buf
	out []byte        // response frame

	elect wire.ElectRequest // decoded elect request
	batch wire.BatchRequest // decoded batch request (key capacity reused)
	outs  []service.Outcome // batch outcome scratch
	wouts []wire.Outcome    // batch answer scratch, in both encodings
}

var codecs = sync.Pool{New: func() any {
	c := &codec{}
	c.enc = json.NewEncoder(&c.buf)
	c.enc.SetIndent("", "  ")
	return c
}}

// getCodec takes a codec from the pool for a request in the given
// encoding; return it with codecs.Put.
func getCodec(binary bool) *codec {
	c := codecs.Get().(*codec)
	c.binary = binary
	return c
}

// A request is a route's decoded request value, an internal/wire message:
// JSON decodes into it through its tags, a frame's payload through its
// DecodeFrom.
type request interface {
	DecodeFrom(payload []byte) error
}

// decode reads the request body, which instrument capped at limit bytes,
// into v in the negotiated encoding: JSON strictly, or the payload of one
// frame of type typ. It answers 413 (the body passed the cap) or 400
// itself when it cannot.
func (c *codec) decode(w http.ResponseWriter, r *http.Request, limit int64, v request, typ wire.FrameType) bool {
	body, err := readBody(r, c.in, limit)
	c.in = body
	switch {
	case err != nil:
		err = fmt.Errorf("reading request body: %w", err)
	case c.binary:
		err = decodeFrame(body, v, typ)
	default:
		err = c.decodeJSON(body, v)
	}
	if err == nil {
		return true
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		c.message(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds the %d-byte limit", maxErr.Limit))
	} else {
		c.message(w, http.StatusBadRequest, err.Error())
	}
	return false
}

// readBody reads the whole request body into buf, reusing its capacity.
// A body capped at limit bytes is read at most one byte past the cap
// (http.MaxBytesReader), so a declared Content-Length sizes the buffer only
// up to limit+1: a client that declares a terabyte and sends a few bytes
// gets no terabyte.
func readBody(r *http.Request, buf []byte, limit int64) ([]byte, error) {
	buf = buf[:0]
	if n := min(r.ContentLength, limit+1); n > 0 && int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// message answers a failure in the request's encoding: a JSON
// wire.ErrorMessage, or an error frame.
func (c *codec) message(w http.ResponseWriter, status int, msg string) {
	if c.binary {
		c.sendFrame(w, status, wire.AppendErrorFrame(c.out[:0], msg))
		return
	}
	c.sendJSON(w, status, wire.ErrorMessage{Error: msg})
}

// registered answers a successful admission in the request's encoding.
func (c *codec) registered(w http.ResponseWriter, status int, resp wire.RegisterResponse) {
	if c.binary {
		c.sendFrame(w, status, wire.AppendRegisterResponseFrame(c.out[:0], &resp))
		return
	}
	c.sendJSON(w, status, resp)
}
