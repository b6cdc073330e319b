package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// This file is the JSON half of the pooled codec (codec.go). Answers are
// encoded through the codec's persistent indented encoder into its pooled
// buffer: the bytes are WriteJSON's exactly — same indentation, same
// trailing newline — with an exact Content-Length on top. Admin endpoints
// (stats, health) stay on WriteJSON: they are off the serve path and their
// responses are dominated by the snapshot they report, not codec state.

// decodeJSON parses body into v strictly: unknown fields (a typo'd
// "artifcat" would otherwise silently trigger a server-side build) and
// trailing data are refused.
func (c *codec) decodeJSON(body []byte, v any) error {
	c.rd.Reset(body)
	dec := json.NewDecoder(&c.rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	var trailing json.RawMessage
	switch err := dec.Decode(&trailing); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("request body carries trailing data after the JSON object")
	default:
		return fmt.Errorf("decoding request body: %w", err)
	}
}

// sendJSON encodes v into the codec's pooled buffer and writes it with the
// given status.
func (c *codec) sendJSON(w http.ResponseWriter, status int, v any) {
	c.buf.Reset()
	if err := c.enc.Encode(v); err != nil {
		// Unreachable for the server's own response types; fall back to the
		// unpooled path rather than emit a half-written buffer.
		WriteJSON(w, status, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(c.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(c.buf.Bytes())
}
