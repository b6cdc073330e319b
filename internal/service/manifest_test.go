package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

// TestEncodeManifestMatchesEncodingJSON pins the snapshot writer's manifest
// encoder to encoding/json's indented output, so manifests stay
// byte-identical to those earlier releases wrote: on random manifests
// (every field, arbitrary Unicode strings) and on strings holding every
// ASCII byte, invalid UTF-8 and the characters encoding/json escapes.
func TestEncodeManifestMatchesEncodingJSON(t *testing.T) {
	same := func(m *Manifest) bool {
		want, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := encodeManifest(m); !bytes.Equal(got, want) {
			t.Logf("encodeManifest:\n%s\nencoding/json:\n%s", got, want)
			return false
		}
		return true
	}
	var ascii strings.Builder
	for c := 0; c < 0x80; c++ {
		ascii.WriteByte(byte(c))
	}
	odd := []string{ascii.String(), "\xff\xfe\u00e9\xc3", "a\u2028b\u2029c", "<a href=\"x&y\">", "\u65e5\u672c\u8a9e"}
	fixed := []*Manifest{
		{},
		{Version: 2, Shards: 4, Encoding: "binary", EntriesFile: "entries-00000001.bin", Entries: []ManifestEntry{}},
		{Version: 1, Shards: -3, Entries: []ManifestEntry{{Key: "k", ConfigFile: "0000.config.txt", ArtifactFile: "0000.artifact.bin", Nodes: 12}}},
	}
	for _, s := range odd {
		fixed = append(fixed, &Manifest{Version: 2, Encoding: s, EntriesFile: s, Entries: []ManifestEntry{
			{Key: s, ConfigFile: s, ArtifactFile: s, Nodes: -1, Offset: -1 << 62, Length: 1 << 40},
			{Key: "b" + s, Nodes: 96, Offset: 8, Length: 4096},
		}})
	}
	for _, m := range fixed {
		if !same(m) {
			t.Fatalf("manifest %+v encodes differently", m)
		}
	}
	if err := quick.Check(func(m Manifest) bool { return same(&m) }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
