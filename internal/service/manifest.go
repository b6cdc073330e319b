package service

import (
	"strconv"
	"unicode/utf8"
)

// encodeManifest returns m as json.MarshalIndent(m, "", "  ") encodes it,
// byte for byte, and a newline. The snapshot writer encodes its manifest
// here rather than through encoding/json, whose encoder state and indent
// scanner come from sync.Pools: the first use of a pool after a garbage
// collection allocates, so a checkpoint's allocation count varied from run
// to run. The buffer is sized for the whole manifest unless strings need
// escaping, so the encoding is one allocation.
func encodeManifest(m *Manifest) []byte {
	size := 128 + len(m.Encoding) + len(m.EntriesFile)
	for _, e := range m.Entries {
		size += 128 + len(e.Key) + len(e.ConfigFile) + len(e.ArtifactFile)
	}
	b := make([]byte, 0, size)
	b = append(b, "{\n  \"version\": "...)
	b = strconv.AppendInt(b, int64(m.Version), 10)
	b = append(b, ",\n  \"shards\": "...)
	b = strconv.AppendInt(b, int64(m.Shards), 10)
	if m.Encoding != "" {
		b = appendJSONString(append(b, ",\n  \"encoding\": "...), m.Encoding)
	}
	if m.EntriesFile != "" {
		b = appendJSONString(append(b, ",\n  \"entries_file\": "...), m.EntriesFile)
	}
	b = append(b, ",\n  \"entries\": "...)
	switch {
	case m.Entries == nil:
		b = append(b, "null"...)
	case len(m.Entries) == 0:
		b = append(b, "[]"...)
	default:
		for i, e := range m.Entries {
			if i == 0 {
				b = append(b, "[\n    {\n      \"key\": "...)
			} else {
				b = append(b, ",\n    {\n      \"key\": "...)
			}
			b = appendJSONString(b, e.Key)
			if e.ConfigFile != "" {
				b = appendJSONString(append(b, ",\n      \"config_file\": "...), e.ConfigFile)
			}
			if e.ArtifactFile != "" {
				b = appendJSONString(append(b, ",\n      \"artifact_file\": "...), e.ArtifactFile)
			}
			b = append(b, ",\n      \"nodes\": "...)
			b = strconv.AppendInt(b, int64(e.Nodes), 10)
			if e.Offset != 0 {
				b = strconv.AppendInt(append(b, ",\n      \"offset\": "...), e.Offset, 10)
			}
			if e.Length != 0 {
				b = strconv.AppendInt(append(b, ",\n      \"length\": "...), int64(e.Length), 10)
			}
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...)
}

// appendJSONString appends s as a JSON string the way encoding/json writes
// it: invalid UTF-8 becomes U+FFFD, and control characters, <, >, & and
// the line and paragraph separators are escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
