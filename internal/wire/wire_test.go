package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/election"
)

// testConfigs are the configurations of testArtifacts, by name.
var testConfigs = []*config.Config{
	config.SpanFamilyH(2),
	config.LineFamilyG(2),
	config.StaggeredClique(8),
	config.EarlyCenterStar(6, 2),
}

func testArtifacts(t testing.TB) []*election.Compiled {
	t.Helper()
	var out []*election.Compiled
	for _, cfg := range testConfigs {
		d, err := election.BuildDedicated(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		out = append(out, d.Compile())
	}
	return out
}

// configFor returns the test configuration named name.
func configFor(t testing.TB, name string) *config.Config {
	t.Helper()
	for _, cfg := range testConfigs {
		if cfg.Name == name {
			return cfg
		}
	}
	t.Fatalf("no test configuration named %q", name)
	return nil
}

// TestFrameRoundTrip pins the frame layer: encode/decode identity, the
// split into payload and rest, and every corruption class.
func TestFrameRoundTrip(t *testing.T) {
	m := ElectRequest{Key: "demo"}
	buf := AppendElectRequestFrame(nil, &m)
	// A second frame appended to the same buffer decodes as rest.
	buf = AppendErrorFrame(buf, "boom")

	typ, payload, rest, err := DecodeFrame(buf)
	if err != nil || typ != FrameElectRequest {
		t.Fatalf("DecodeFrame: %v type %s", err, typ)
	}
	var got ElectRequest
	if err := got.DecodeFrom(payload); err != nil || got != m {
		t.Fatalf("decode: %v %+v", err, got)
	}
	typ, payload, rest, err = DecodeFrame(rest)
	if err != nil || typ != FrameError || len(rest) != 0 {
		t.Fatalf("second frame: %v type %s rest %d", err, typ, len(rest))
	}
	var em ErrorMessage
	if err := em.DecodeFrom(payload); err != nil || em.Error != "boom" {
		t.Fatalf("error frame: %v %+v", err, em)
	}

	one := AppendElectRequestFrame(nil, &m)
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
		want    error
	}{
		{"short header", func(b []byte) []byte { return b[:HeaderSize-1] }, ErrShortFrame},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }, ErrShortFrame},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrBadMagic},
		{"flipped type", func(b []byte) []byte { b[4] ^= 0x40; return b }, ErrChecksum},
		{"flipped payload", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrChecksum},
		{"giant length", func(b []byte) []byte {
			b[5], b[6], b[7], b[8] = 0xff, 0xff, 0xff, 0xff
			return b
		}, ErrFrameTooBig},
	} {
		b := tc.corrupt(append([]byte(nil), one...))
		if _, _, _, err := DecodeFrame(b); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestMessageRoundTrips checks, for every serve-path message, that
// DecodeFrom restores the value.
func TestMessageRoundTrips(t *testing.T) {
	artifact := testArtifacts(t)[0]
	outcomes := []Outcome{
		{Key: "a", Elected: true, Leader: 3, Rounds: 41},
		{Key: "b", Elected: false, Leader: -1, Rounds: 0, Error: "service: no leader"},
		{Key: "", Elected: false, Leader: -1, Rounds: -7, Error: ""},
	}

	check := func(name string, frame []byte, decode func(p []byte) (any, error), want any) {
		t.Helper()
		typ, payload, rest, err := DecodeFrame(frame)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: frame: %v rest %d", name, err, len(rest))
		}
		got, err := decode(payload)
		if err != nil {
			t.Fatalf("%s: decode (%s): %v", name, typ, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip diverged:\n got %+v\nwant %+v", name, got, want)
		}
		// Truncating the payload anywhere must fail, never succeed silently.
		for cut := 0; cut < len(payload); cut++ {
			if _, err := decode(payload[:cut]); err == nil {
				t.Fatalf("%s: decode of %d/%d payload bytes succeeded", name, cut, len(payload))
			}
		}
	}

	er := ElectRequest{Key: "demo"}
	check("elect-request", AppendElectRequestFrame(nil, &er), func(p []byte) (any, error) {
		var m ElectRequest
		err := m.DecodeFrom(p)
		return m, err
	}, er)

	for i := range outcomes {
		o := outcomes[i]
		check("outcome", AppendOutcomeFrame(nil, &o), func(p []byte) (any, error) {
			var m Outcome
			err := m.DecodeFrom(p)
			return m, err
		}, o)
	}

	br := BatchRequest{Keys: []string{"a", "b", "c", ""}}
	check("batch-request", AppendBatchRequestFrame(nil, &br), func(p []byte) (any, error) {
		var m BatchRequest
		err := m.DecodeFrom(p)
		return m, err
	}, br)

	bres := BatchResponse{Outcomes: outcomes, Failures: 2}
	check("batch-response", AppendBatchResponseFrame(nil, &bres), func(p []byte) (any, error) {
		var m BatchResponse
		err := m.DecodeFrom(p)
		return m, err
	}, bres)

	rreq := RegisterRequest{Key: "k", Config: "clique 3", Async: true, Artifact: artifact}
	check("register-request", AppendRegisterRequestFrame(nil, &rreq), func(p []byte) (any, error) {
		var m RegisterRequest
		err := m.DecodeFrom(p)
		return m, err
	}, rreq)

	rresp := RegisterResponse{Key: "k", Source: "artifact", Status: "pending", StatusURL: "/v1/admissions/k"}
	check("register-response", AppendRegisterResponseFrame(nil, &rresp), func(p []byte) (any, error) {
		var m RegisterResponse
		err := m.DecodeFrom(p)
		return m, err
	}, rresp)

	admit := WALAdmit{Key: "k", Config: "clique 3", Artifact: artifact}
	check("wal-admit", AppendWALAdmitFrame(nil, &admit), func(p []byte) (any, error) {
		var m WALAdmit
		err := m.DecodeFrom(p)
		return m, err
	}, admit)

	evict := WALEvict{Key: "k"}
	check("wal-evict", AppendWALEvictFrame(nil, &evict), func(p []byte) (any, error) {
		var m WALEvict
		err := m.DecodeFrom(p)
		return m, err
	}, evict)
}

// TestArtifactRoundTrip is the heart of the binary snapshot format: for
// real compiled artifacts, the encoding is lossless and stable (re-encoding
// a decoded artifact is bit-identical).
func TestArtifactRoundTrip(t *testing.T) {
	for _, c := range testArtifacts(t) {
		payload := AppendArtifact(nil, c)
		got, err := DecodeArtifact(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.ConfigName, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("%s: round trip diverged:\n got %+v\nwant %+v", c.ConfigName, got, c)
		}
		if again := AppendArtifact(nil, got); !bytes.Equal(payload, again) {
			t.Fatalf("%s: re-encode not bit-identical", c.ConfigName)
		}

		// The framed form round-trips through the auto-detecting decoder,
		// and so does the JSON era's file content.
		framed := AppendArtifactFrame(nil, c)
		fromFrame, err := DecodeArtifactAuto(framed)
		if err != nil || !reflect.DeepEqual(fromFrame, c) {
			t.Fatalf("%s: auto decode of frame: %v", c.ConfigName, err)
		}
		jsonData, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, err := DecodeArtifactAuto(jsonData)
		if err != nil {
			t.Fatalf("%s: auto decode of JSON: %v", c.ConfigName, err)
		}
		if !reflect.DeepEqual(fromJSON, c) {
			t.Fatalf("%s: JSON auto decode diverged", c.ConfigName)
		}

		if len(framed)*3 > len(jsonData) {
			t.Logf("%s: binary %d bytes vs compact JSON %d bytes (%.1fx)",
				c.ConfigName, len(framed), len(jsonData), float64(len(jsonData))/float64(len(framed)))
		}
	}
}

// withLegacyTable returns c as an earlier release compiled it: with the
// phase table of its algorithm and an artifact digest.
func withLegacyTable(t testing.TB, c *election.Compiled) *election.Compiled {
	t.Helper()
	d, err := election.BuildDedicated(configFor(t, c.ConfigName))
	if err != nil {
		t.Fatal(err)
	}
	legacy := *c
	legacy.PhaseTable = d.DRIP.Table()
	legacy.ArtifactDigest = "54fd9a642a312481"
	return &legacy
}

// appendLegacyArtifact is the artifact encoder of earlier releases, which
// also wrote c.ArtifactDigest and c.PhaseTable (round plans as fixed-width
// rows, see packLegacyPlan).
func appendLegacyArtifact(dst []byte, c *election.Compiled) []byte {
	dst = binary.AppendUvarint(dst, artifactVersion)
	dst = appendString(dst, c.ConfigName)
	dst = appendString(dst, c.ArtifactDigest)
	body := AppendArtifact(nil, c)
	skip := len(appendString(binary.AppendUvarint(nil, artifactVersion), c.ConfigName)) + len(appendString(nil, ""))
	dst = append(dst, body[skip:len(body)-1]...) // up to the table flag
	pt := c.PhaseTable
	dst = append(dst, 1)
	dst = binary.AppendVarint(dst, int64(pt.Sigma))
	dst = binary.AppendUvarint(dst, uint64(len(pt.Plans)))
	for _, p := range pt.Plans {
		dst = binary.LittleEndian.AppendUint64(dst, packLegacyPlan(p))
	}
	dst = binary.AppendUvarint(dst, uint64(len(pt.Matches)))
	for _, pm := range pt.Matches {
		dst = binary.AppendVarint(dst, int64(pm.Start))
		dst = binary.AppendUvarint(dst, uint64(len(pm.Rows)))
		for _, row := range pm.Rows {
			dst = binary.AppendVarint(dst, int64(row.OldClass))
			dst = binary.AppendUvarint(dst, uint64(len(row.Expect)))
			dst = append(dst, row.Expect...)
		}
	}
	return dst
}

// packLegacyPlan is the round-plan row packing of earlier releases:
// phase<<32 | block, both int32 two's complement.
func packLegacyPlan(p canonical.RoundPlan) uint64 {
	return uint64(uint32(int32(p.Phase)))<<32 | uint64(uint32(int32(p.Block)))
}

// TestLegacyArtifactTables pins the read-only half of the format: the
// decoder still reads the digest and phase table of an earlier release's
// artifact — the checked-in table-era checkpoint's files byte for byte as
// that release wrote them — and the encoder writes neither back.
func TestLegacyArtifactTables(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "service", "testdata", "table-era", "checkpoint", "*.artifact.bin"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no table-era artifacts: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := DecodeArtifactFrame(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if c.PhaseTable == nil || c.ArtifactDigest == "" {
			t.Fatalf("%s: decoded without its table or digest", path)
		}
		_, payload, _, err := DecodeFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		if legacy := appendLegacyArtifact(nil, c); !bytes.Equal(legacy, payload) {
			t.Fatalf("%s: the reference encoder of earlier releases does not reproduce the file", path)
		}
		dropped := *c
		dropped.PhaseTable, dropped.ArtifactDigest = nil, ""
		again, err := DecodeArtifact(AppendArtifact(nil, c))
		if err != nil || !reflect.DeepEqual(again, &dropped) {
			t.Fatalf("%s: re-encoding kept the table or digest (%v): %+v", path, err, again)
		}
	}
	for _, c := range testArtifacts(t) {
		legacy := withLegacyTable(t, c)
		got, err := DecodeArtifact(appendLegacyArtifact(nil, legacy))
		if err != nil || !reflect.DeepEqual(got, legacy) {
			t.Fatalf("%s: legacy decode (%v):\n got %+v\nwant %+v", c.ConfigName, err, got, legacy)
		}
	}
}

// TestArtifactPlanRange: the encoder writes no phase table, so a table with
// rows outside the int32 range of the legacy row packing still encodes, and
// decodes without a table.
func TestArtifactPlanRange(t *testing.T) {
	c := withLegacyTable(t, testArtifacts(t)[0])
	c.PhaseTable.Plans[0].Phase = 1 << 40
	got, err := DecodeArtifactFrame(AppendArtifactFrame(nil, c))
	if err != nil || got.PhaseTable != nil || got.ArtifactDigest != "" {
		t.Fatalf("decoded %+v, %v; want no table and no digest", got, err)
	}
}

// TestArtifactVersionGate: a future version byte is refused, not misparsed.
func TestArtifactVersionGate(t *testing.T) {
	payload := AppendArtifact(nil, testArtifacts(t)[0])
	payload[0] = artifactVersion + 1
	if _, err := DecodeArtifact(payload); err == nil {
		t.Fatal("future artifact version decoded")
	}
}

// TestPlanPacking pins the decoder's reading of the int32 two's-complement
// row packing of earlier releases' tables, including the -1 terminate
// marker.
func TestPlanPacking(t *testing.T) {
	for _, p := range []canonical.RoundPlan{
		{Phase: 1, Block: -1},
		{Phase: 3, Block: 0},
		{Phase: 7, Block: 12},
		{Phase: 1 << 30, Block: -(1 << 30)},
	} {
		x := packLegacyPlan(p)
		if got := unpackPlan(x); got != p {
			t.Fatalf("plan %+v packed to %x unpacked to %+v", p, x, got)
		}
	}
}

func BenchmarkWireEncodeArtifact(b *testing.B) {
	c := testArtifacts(b)[2] // clique-8: the largest test artifact
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendArtifactFrame(buf[:0], c)
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkWireDecodeArtifact(b *testing.B) {
	c := testArtifacts(b)[2]
	buf := AppendArtifactFrame(nil, c)
	jsonData, _ := json.MarshalIndent(c, "", "  ")
	b.Logf("binary %d bytes, indented JSON %d bytes", len(buf), len(jsonData))
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeArtifactFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeArtifactJSON is the baseline the binary decoder is
// measured against (the JSON snapshot restore parse).
func BenchmarkWireDecodeArtifactJSON(b *testing.B) {
	c := testArtifacts(b)[2]
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := election.UnmarshalCompiled(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireOutcomeRoundTrip(b *testing.B) {
	o := Outcome{Key: "clique-64", Elected: true, Leader: 17, Rounds: 353}
	var buf []byte
	var m Outcome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendOutcomeFrame(buf[:0], &o)
		_, payload, _, err := DecodeFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.DecodeFrom(payload); err != nil {
			b.Fatal(err)
		}
	}
}
