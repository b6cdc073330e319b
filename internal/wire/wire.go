// Package wire implements the compact binary protocol shared by the HTTP
// serve path, the snapshot store, and the admission journal: little-endian,
// length-prefixed frames with a CRC-32C integrity check, carrying varint-
// packed messages.
//
// The package exists because the serve path is allocation-free in process
// but pays for JSON on the wire (docs/PERFORMANCE.md): every message type
// therefore exposes an AppendTo that appends into a caller-owned
// (typically pooled) buffer, growing it as needed, and DecodeFrom reads
// from a borrowed byte slice without retaining it — decoded messages own
// their memory, buffers can go straight back to a sync.Pool.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic 0x31575241 ("ARW1")
//	4       1     frame type (FrameType)
//	5       4     payload length
//	9       4     CRC-32C (Castagnoli) over the type byte and the payload
//	13      n     payload
//
// One frame is one message; the type byte names the payload codec. Unknown
// types decode as ErrUnknownFrame so the format can grow without breaking
// old readers, and corrupt payloads fail the CRC before any payload parsing
// runs. Decoding arbitrary bytes never panics (fuzzed by FuzzWireDecodeFrame
// and FuzzArtifactRoundTrip).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a wire frame; the little-endian bytes spell "ARW1".
const Magic uint32 = 0x31575241

// HeaderSize is the fixed frame header: magic(4) + type(1) + length(4) +
// CRC-32C(4).
const HeaderSize = 13

// MaxPayload caps a single frame's payload. It exists so a corrupt or
// hostile length field cannot drive a reader into a giant allocation; it is
// far above any real message (the largest artifacts in the repository are
// a few MiB).
const MaxPayload = 1 << 30

// FrameType names the payload codec of a frame.
type FrameType byte

// Frame types. The gaps group the serve-path messages, the artifact frame,
// and the journal records; new types must be appended, never renumbered —
// the values are on disk in snapshots and WAL segments.
const (
	// FrameInvalid is the zero value; no frame carries it.
	FrameInvalid FrameType = 0x00

	// Serve-path messages (internal/server content negotiation).
	FrameElectRequest     FrameType = 0x01
	FrameOutcome          FrameType = 0x02
	FrameBatchRequest     FrameType = 0x03
	FrameBatchResponse    FrameType = 0x04
	FrameRegisterRequest  FrameType = 0x05
	FrameRegisterResponse FrameType = 0x06
	FrameError            FrameType = 0x07

	// FrameArtifact carries one compiled election artifact (snapshot files).
	FrameArtifact FrameType = 0x10

	// Journal records (internal/service durability).
	FrameWALAdmit FrameType = 0x20
	FrameWALEvict FrameType = 0x21
)

// String names the frame type for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameElectRequest:
		return "elect-request"
	case FrameOutcome:
		return "outcome"
	case FrameBatchRequest:
		return "batch-request"
	case FrameBatchResponse:
		return "batch-response"
	case FrameRegisterRequest:
		return "register-request"
	case FrameRegisterResponse:
		return "register-response"
	case FrameError:
		return "error"
	case FrameArtifact:
		return "artifact"
	case FrameWALAdmit:
		return "wal-admit"
	case FrameWALEvict:
		return "wal-evict"
	}
	return fmt.Sprintf("frame(0x%02x)", byte(t))
}

// Decode errors. ErrShortFrame distinguishes "feed me more bytes" from the
// other, terminal corruptions.
var (
	ErrShortFrame   = errors.New("wire: short frame")
	ErrBadMagic     = errors.New("wire: bad frame magic")
	ErrFrameTooBig  = errors.New("wire: frame payload exceeds MaxPayload")
	ErrChecksum     = errors.New("wire: frame checksum mismatch")
	ErrUnknownFrame = errors.New("wire: unknown frame type")
	ErrTruncated    = errors.New("wire: truncated payload")
	ErrTrailing     = errors.New("wire: trailing bytes after payload")
	ErrRange        = errors.New("wire: value out of range")
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64);
// the same polynomial the WAL frames use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IsFrame reports whether b begins with the wire frame magic. Snapshot
// restore and WAL replay use it to auto-detect binary payloads against the
// JSON era's files and records (JSON never starts with these bytes: the
// first magic byte is 'A', and JSON documents here start with '{').
func IsFrame(b []byte) bool {
	return len(b) >= 4 && binary.LittleEndian.Uint32(b) == Magic
}

// beginFrame appends a frame header for typ with zeroed length and CRC and
// returns the extended buffer plus the payload start offset for endFrame.
func beginFrame(dst []byte, typ FrameType) ([]byte, int) {
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = append(dst, byte(typ), 0, 0, 0, 0, 0, 0, 0, 0)
	return dst, len(dst)
}

// endFrame patches the length and CRC of the frame whose payload starts at
// mark (as returned by beginFrame) and ends at len(dst).
func endFrame(dst []byte, mark int) []byte {
	payload := dst[mark:]
	start := mark - HeaderSize
	binary.LittleEndian.PutUint32(dst[start+5:], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, dst[start+4:start+5])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(dst[start+9:], crc)
	return dst
}

// DecodeFrame splits one frame off the front of b: it returns the frame
// type, the payload (aliasing b — copy anything retained), and the bytes
// after the frame. ErrShortFrame means b holds a frame prefix that needs
// more bytes; the other errors are terminal for this buffer.
func DecodeFrame(b []byte) (typ FrameType, payload, rest []byte, err error) {
	if len(b) < HeaderSize {
		return 0, nil, nil, ErrShortFrame
	}
	if binary.LittleEndian.Uint32(b) != Magic {
		return 0, nil, nil, ErrBadMagic
	}
	typ = FrameType(b[4])
	n := binary.LittleEndian.Uint32(b[5:9])
	if n > MaxPayload {
		return 0, nil, nil, ErrFrameTooBig
	}
	end := HeaderSize + int(n)
	if len(b) < end {
		return 0, nil, nil, ErrShortFrame
	}
	payload = b[HeaderSize:end]
	crc := crc32.Update(0, castagnoli, b[4:5])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.LittleEndian.Uint32(b[9:13]) {
		return 0, nil, nil, ErrChecksum
	}
	return typ, payload, b[end:], nil
}

// ---------------------------------------------------------------------------
// Varint / string primitives.
//
// Unsigned values use LEB128 (encoding/binary's uvarint); signed values use
// the zig-zag varint.

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// reader decodes a payload front to back. Every method validates against
// the remaining bytes before allocating, so corrupt or hostile counts fail
// with ErrTruncated instead of attempting a giant allocation: an element
// count is only accepted when the remainder could hold that many elements
// at their minimum encoded size.
type reader struct {
	p []byte
}

func (r *reader) empty() bool { return len(r.p) == 0 }

func (r *reader) byte() (byte, error) {
	if len(r.p) < 1 {
		return 0, ErrTruncated
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.p = r.p[n:]
	return v, nil
}

func (r *reader) svarint() (int64, error) {
	v, n := binary.Varint(r.p)
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.p = r.p[n:]
	return v, nil
}

// svarintInt decodes a zig-zag varint that must fit the platform int.
func (r *reader) svarintInt() (int, error) {
	v, err := r.svarint()
	if err != nil {
		return 0, err
	}
	if int64(int(v)) != v {
		return 0, ErrRange
	}
	return int(v), nil
}

// count decodes an element count whose elements need at least minBytes each.
func (r *reader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.p)/minBytes) {
		return 0, ErrTruncated
	}
	return int(v), nil
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || n > len(r.p) {
		return nil, ErrTruncated
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b, nil
}

func (r *reader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.p)) {
		return "", ErrTruncated
	}
	s := string(r.p[:n])
	r.p = r.p[n:]
	return s, nil
}

// finish fails with ErrTrailing when payload bytes remain: every frame
// payload must be consumed exactly, so a length-desynchronized encoder is
// caught instead of silently ignored.
func (r *reader) finish() error {
	if len(r.p) != 0 {
		return ErrTrailing
	}
	return nil
}
