package wire

import "anonradio/internal/election"

// This file holds the binary admission-journal records. One journal record
// is one complete wire frame (FrameWALAdmit or FrameWALEvict) stored as the
// payload of one WAL frame — the WAL's own framing handles torn tails and
// resync, the wire frame names the record codec and lets replay auto-detect
// binary records against the JSON era's records byte-by-byte (JSON records
// start with '{', wire frames with the magic).

// WALAdmit journals one acknowledged admission: the key, the configuration
// source it was admitted from, and the compiled artifact replay loads
// (election.Load) instead of rebuilding.
type WALAdmit struct {
	Key      string
	Config   string
	Artifact *election.Compiled
}

// WALEvict journals one acknowledged eviction.
type WALEvict struct {
	Key string
}

// AppendWALAdmitFrame appends the framed admit record to dst.
func AppendWALAdmitFrame(dst []byte, m *WALAdmit) []byte {
	dst, mark := beginFrame(dst, FrameWALAdmit)
	var flags byte
	if m.Artifact != nil {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = appendString(dst, m.Key)
	dst = appendString(dst, m.Config)
	if m.Artifact != nil {
		dst = AppendArtifact(dst, m.Artifact)
	}
	return endFrame(dst, mark)
}

// DecodeFrom decodes a payload produced by AppendWALAdmitFrame.
func (m *WALAdmit) DecodeFrom(p []byte) error {
	r := reader{p}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	if m.Key, err = r.string(); err != nil {
		return err
	}
	if m.Config, err = r.string(); err != nil {
		return err
	}
	m.Artifact = nil
	if flags&1 != 0 {
		if m.Artifact, err = decodeArtifact(&r); err != nil {
			return err
		}
	}
	return r.finish()
}

// PeekWALKey extracts the key of one journal-record frame payload without
// decoding the artifact body. Replay's compaction pre-pass uses it to pair
// admit records with later evicts of the same key cheaply; ok is false for
// frame types that are not journal records and for payloads too damaged to
// carry a key.
func PeekWALKey(typ FrameType, payload []byte) (key string, ok bool) {
	r := reader{payload}
	switch typ {
	case FrameWALAdmit:
		if _, err := r.byte(); err != nil { // flags
			return "", false
		}
	case FrameWALEvict:
	default:
		return "", false
	}
	key, err := r.string()
	if err != nil {
		return "", false
	}
	return key, true
}

// AppendWALEvictFrame appends the framed evict record to dst.
func AppendWALEvictFrame(dst []byte, m *WALEvict) []byte {
	dst, mark := beginFrame(dst, FrameWALEvict)
	dst = appendString(dst, m.Key)
	return endFrame(dst, mark)
}

// DecodeFrom decodes a payload produced by AppendWALEvictFrame.
func (m *WALEvict) DecodeFrom(p []byte) error {
	r := reader{p}
	var err error
	if m.Key, err = r.string(); err != nil {
		return err
	}
	return r.finish()
}
