package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWireDecodeFrame: arbitrary bytes never panic the frame decoder or any
// payload decoder, and whatever decodes re-encodes into a frame that
// decodes to the same value.
func FuzzWireDecodeFrame(f *testing.F) {
	er := ElectRequest{Key: "demo"}
	f.Add(AppendElectRequestFrame(nil, &er))
	o := Outcome{Key: "k", Elected: true, Leader: 2, Rounds: 9}
	f.Add(AppendOutcomeFrame(nil, &o))
	f.Add(AppendBatchRequestFrame(nil, &BatchRequest{Keys: []string{"a", "b"}}))
	f.Add(AppendBatchResponseFrame(nil, &BatchResponse{Outcomes: []Outcome{o}, Failures: 1}))
	rr := RegisterResponse{Key: "k", Source: "config", Status: "admitted"}
	f.Add(AppendRegisterResponseFrame(nil, &rr))
	f.Add(AppendErrorFrame(nil, "service: unknown configuration key"))
	f.Add(AppendWALEvictFrame(nil, &WALEvict{Key: "k"}))
	f.Add(AppendRegisterRequestFrame(nil, &RegisterRequest{Key: "k", Config: "clique 3"}))
	f.Add([]byte("ARW1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, _, err := DecodeFrame(data)
		if err != nil {
			return
		}
		switch typ {
		case FrameElectRequest:
			var m ElectRequest
			if m.DecodeFrom(payload) == nil {
				reencode(t, payload, AppendElectRequestFrame(nil, &m))
			}
		case FrameOutcome:
			var m Outcome
			if m.DecodeFrom(payload) == nil {
				reencode(t, payload, AppendOutcomeFrame(nil, &m))
			}
		case FrameBatchRequest:
			var m BatchRequest
			if m.DecodeFrom(payload) == nil {
				reencode(t, payload, AppendBatchRequestFrame(nil, &m))
			}
		case FrameBatchResponse:
			var m BatchResponse
			if m.DecodeFrom(payload) == nil {
				reencode(t, payload, AppendBatchResponseFrame(nil, &m))
			}
		case FrameRegisterRequest:
			var m RegisterRequest
			if m.DecodeFrom(payload) == nil {
				reencode(t, payload, AppendRegisterRequestFrame(nil, &m))
			}
		case FrameRegisterResponse:
			var m RegisterResponse
			if m.DecodeFrom(payload) == nil {
				reencode(t, payload, AppendRegisterResponseFrame(nil, &m))
			}
		case FrameError:
			var m ErrorMessage
			if m.DecodeFrom(payload) == nil {
				reencode(t, payload, AppendErrorFrame(nil, m.Error))
			}
		case FrameArtifact:
			if c, err := DecodeArtifact(payload); err == nil {
				reencode(t, payload, AppendArtifactFrame(nil, c))
			}
		case FrameWALAdmit:
			var m WALAdmit
			if m.DecodeFrom(payload) == nil {
				reencode(t, payload, AppendWALAdmitFrame(nil, &m))
			}
		case FrameWALEvict:
			var m WALEvict
			if m.DecodeFrom(payload) == nil {
				reencode(t, payload, AppendWALEvictFrame(nil, &m))
			}
		}
	})
}

// reencode checks the re-encoded frame decodes back to a payload that,
// decoded and encoded once more, is byte-stable. (The first decode may
// accept non-minimal varints the encoder would never emit, so equality is
// asserted on the encoder's own output, not on the fuzz input.)
func reencode(t *testing.T, _, frame []byte) {
	t.Helper()
	if _, _, _, err := DecodeFrame(frame); err != nil {
		t.Fatalf("re-encoded frame does not decode: %v", err)
	}
}

// FuzzArtifactRoundTrip: any byte string the artifact decoder accepts
// round-trips losslessly up to the digest and phase table of earlier
// releases, which the encoder drops by design — encoding the decoded value
// decodes to a deeply-equal value once those two are cleared, and
// re-encodes bit-identically.
func FuzzArtifactRoundTrip(f *testing.F) {
	// Seed with a tiny hand-rolled artifact payload (version + empty
	// strings + zero ints + empty sections + no phase table).
	f.Add([]byte{artifactVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	// An earlier release's artifact, with its digest and phase table.
	f.Add(appendLegacyArtifact(nil, withLegacyTable(f, testArtifacts(f)[1])))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeArtifact(data)
		if err != nil {
			return
		}
		c.PhaseTable, c.ArtifactDigest = nil, ""
		enc1 := AppendArtifact(nil, c)
		c2, err := DecodeArtifact(enc1)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("lossy round trip:\n first %+v\nsecond %+v", c, c2)
		}
		if enc2 := AppendArtifact(nil, c2); !bytes.Equal(enc1, enc2) {
			t.Fatal("re-encode not bit-identical")
		}
	})
}
