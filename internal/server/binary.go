package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"anonradio/internal/wire"
)

// This file is the binary half of the pooled codec (codec.go): a request
// whose Content-Type is ContentTypeBinary carries one length-prefixed,
// CRC-checked wire frame (internal/wire) and is answered in kind. A
// route's request and answer are internal/wire messages in both
// encodings, so the two cannot drift apart field by field.

// ContentTypeBinary is the media type of the binary wire encoding; see
// docs/SERVER.md for the frame layout.
const ContentTypeBinary = "application/x-anonradio-bin"

// binaryRequest reports whether the request declares the binary encoding.
func binaryRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == ContentTypeBinary || strings.HasPrefix(ct, ContentTypeBinary+";")
}

// decodeFrame unwraps the single frame of type want that body must be and
// decodes its payload into v.
func decodeFrame(body []byte, v request, want wire.FrameType) error {
	typ, payload, rest, err := wire.DecodeFrame(body)
	switch {
	case err != nil:
		return fmt.Errorf("decoding request frame: %w", err)
	case typ != want:
		return fmt.Errorf("request frame is %v, want %v", typ, want)
	case len(rest) != 0:
		return errors.New("request body carries trailing data after the frame")
	}
	if err := v.DecodeFrom(payload); err != nil {
		return fmt.Errorf("decoding %v payload: %w", want, err)
	}
	return nil
}

// sendFrame writes frame as the response body, keeping its buffer for the
// next request.
func (c *codec) sendFrame(w http.ResponseWriter, status int, frame []byte) {
	c.out = frame
	writeFrame(w, status, frame)
}

// writeFrame writes one wire frame as the response body.
func writeFrame(w http.ResponseWriter, status int, frame []byte) {
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(status)
	_, _ = w.Write(frame)
}
