package wire

import (
	"encoding/binary"
	"fmt"

	"anonradio/internal/canonical"
	"anonradio/internal/core"
	"anonradio/internal/election"
	"anonradio/internal/history"
)

// This file encodes compiled election artifacts (election.Compiled): the
// payload of FrameArtifact (binary snapshot files), of the artifact section
// of FrameRegisterRequest, and of FrameWALAdmit journal records.
//
// An artifact is the blueprint (σ and the lists) plus the decision data
// (leader history, designated leader, round counts); every section is
// varint-packed. The encoder writes an empty digest string and a zero
// phase-table flag. Artifacts of earlier releases carry a digest and a
// phase table in those two places: the decoder still reads both, the
// table's round plans as a flat []uint64 (one row per local round, phase
// in the high 32 bits and block in the low 32, two's complement for the -1
// terminate marker), so election.Load can check the table against the
// lists. History entries keep their Msg regardless of kind.

// artifactVersion is the current artifact payload version; readers accept
// only versions they know.
const artifactVersion = 1

// unpackPlan decodes one round-plan row of an earlier release's phase
// table: phase<<32 | block, both int32 two's complement.
func unpackPlan(x uint64) canonical.RoundPlan {
	return canonical.RoundPlan{
		Phase: int(int32(uint32(x >> 32))),
		Block: int(int32(uint32(x))),
	}
}

// AppendArtifact appends the encoded artifact payload (no frame) to dst. It
// writes neither c.ArtifactDigest nor c.PhaseTable.
func AppendArtifact(dst []byte, c *election.Compiled) []byte {
	dst = binary.AppendUvarint(dst, artifactVersion)
	dst = appendString(dst, c.ConfigName)
	dst = appendString(dst, "") // digest
	dst = binary.AppendVarint(dst, int64(c.ExpectedLeader))
	dst = binary.AppendVarint(dst, int64(c.LocalRounds))
	dst = binary.AppendVarint(dst, int64(c.RoundBound))
	dst = binary.AppendUvarint(dst, uint64(len(c.LeaderHistory)))
	for i := range c.LeaderHistory {
		dst = append(dst, byte(c.LeaderHistory[i].Kind))
		dst = appendString(dst, c.LeaderHistory[i].Msg)
	}
	dst = binary.AppendVarint(dst, int64(c.Blueprint.Sigma))
	dst = binary.AppendUvarint(dst, uint64(len(c.Blueprint.Lists)))
	for _, l := range c.Blueprint.Lists {
		var flags byte
		if l.Terminate {
			flags = 1
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, uint64(len(l.Entries)))
		for _, e := range l.Entries {
			dst = binary.AppendVarint(dst, int64(e.OldClass))
			dst = binary.AppendUvarint(dst, uint64(len(e.Label)))
			for _, t := range e.Label {
				dst = binary.AppendVarint(dst, int64(t.Class))
				dst = binary.AppendVarint(dst, int64(t.Round))
				var multi byte
				if t.Multi {
					multi = 1
				}
				dst = append(dst, multi)
			}
		}
	}
	return append(dst, 0) // no phase table
}

// decodeArtifact decodes an artifact payload section from r. Every decoded
// slice is freshly allocated: nothing aliases the reader's buffer.
func decodeArtifact(r *reader) (*election.Compiled, error) {
	version, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if version != artifactVersion {
		return nil, fmt.Errorf("wire: unsupported artifact version %d", version)
	}
	c := new(election.Compiled)
	if c.ConfigName, err = r.string(); err != nil {
		return nil, err
	}
	if c.ArtifactDigest, err = r.string(); err != nil {
		return nil, err
	}
	if c.ExpectedLeader, err = r.svarintInt(); err != nil {
		return nil, err
	}
	if c.LocalRounds, err = r.svarintInt(); err != nil {
		return nil, err
	}
	if c.RoundBound, err = r.svarintInt(); err != nil {
		return nil, err
	}
	// History entries are at least kind + empty msg = 2 bytes.
	n, err := r.count(2)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		c.LeaderHistory = make(history.Vector, n)
		for i := range c.LeaderHistory {
			kind, err := r.byte()
			if err != nil {
				return nil, err
			}
			c.LeaderHistory[i].Kind = history.Kind(kind)
			if c.LeaderHistory[i].Msg, err = r.string(); err != nil {
				return nil, err
			}
		}
	}
	if c.Blueprint.Sigma, err = r.svarintInt(); err != nil {
		return nil, err
	}
	// Lists are at least flags + entry count = 2 bytes.
	n, err = r.count(2)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		c.Blueprint.Lists = make([]core.List, n)
		for i := range c.Blueprint.Lists {
			l := &c.Blueprint.Lists[i]
			flags, err := r.byte()
			if err != nil {
				return nil, err
			}
			l.Terminate = flags&1 != 0
			// Entries are at least old-class + label count = 2 bytes.
			ne, err := r.count(2)
			if err != nil {
				return nil, err
			}
			if ne == 0 {
				continue
			}
			l.Entries = make([]core.ListEntry, ne)
			for j := range l.Entries {
				e := &l.Entries[j]
				if e.OldClass, err = r.svarintInt(); err != nil {
					return nil, err
				}
				// Triples are at least class + round + multi = 3 bytes.
				nt, err := r.count(3)
				if err != nil {
					return nil, err
				}
				if nt == 0 {
					continue
				}
				e.Label = make(core.Label, nt)
				for k := range e.Label {
					t := &e.Label[k]
					if t.Class, err = r.svarintInt(); err != nil {
						return nil, err
					}
					if t.Round, err = r.svarintInt(); err != nil {
						return nil, err
					}
					multi, err := r.byte()
					if err != nil {
						return nil, err
					}
					t.Multi = multi != 0
				}
			}
		}
	}
	// The phase table of an earlier release, if the artifact has one.
	present, err := r.byte()
	if err != nil {
		return nil, err
	}
	if present != 0 {
		pt := new(canonical.PhaseTable)
		if pt.Sigma, err = r.svarintInt(); err != nil {
			return nil, err
		}
		// Plan rows are fixed-width 8 bytes.
		np, err := r.count(8)
		if err != nil {
			return nil, err
		}
		if np > 0 {
			raw, err := r.take(8 * np)
			if err != nil {
				return nil, err
			}
			pt.Plans = make([]canonical.RoundPlan, np)
			for i := range pt.Plans {
				pt.Plans[i] = unpackPlan(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		// Matches are at least start + row count = 2 bytes.
		nm, err := r.count(2)
		if err != nil {
			return nil, err
		}
		if nm > 0 {
			pt.Matches = make([]canonical.PhaseMatch, nm)
			for i := range pt.Matches {
				pm := &pt.Matches[i]
				if pm.Start, err = r.svarintInt(); err != nil {
					return nil, err
				}
				// Rows are at least old-class + expect count = 2 bytes.
				nr, err := r.count(2)
				if err != nil {
					return nil, err
				}
				if nr == 0 {
					continue
				}
				pm.Rows = make([]canonical.MatchRow, nr)
				for j := range pm.Rows {
					row := &pm.Rows[j]
					if row.OldClass, err = r.svarintInt(); err != nil {
						return nil, err
					}
					ne, err := r.count(1)
					if err != nil {
						return nil, err
					}
					if ne == 0 {
						continue
					}
					raw, err := r.take(ne)
					if err != nil {
						return nil, err
					}
					row.Expect = append([]byte(nil), raw...)
				}
			}
		}
		c.PhaseTable = pt
	}
	return c, nil
}

// DecodeArtifact decodes an artifact payload produced by AppendArtifact.
func DecodeArtifact(p []byte) (*election.Compiled, error) {
	r := reader{p}
	c, err := decodeArtifact(&r)
	if err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return c, nil
}

// AppendArtifactFrame appends the framed artifact to dst (the binary
// snapshot file format: exactly one FrameArtifact per file).
func AppendArtifactFrame(dst []byte, c *election.Compiled) []byte {
	dst, mark := beginFrame(dst, FrameArtifact)
	return endFrame(AppendArtifact(dst, c), mark)
}

// DecodeArtifactFrame decodes a complete FrameArtifact buffer (header +
// payload, nothing trailing).
func DecodeArtifactFrame(b []byte) (*election.Compiled, error) {
	typ, payload, rest, err := DecodeFrame(b)
	if err != nil {
		return nil, err
	}
	if typ != FrameArtifact {
		return nil, fmt.Errorf("%w: got %s, want %s", ErrUnknownFrame, typ, FrameArtifact)
	}
	if len(rest) != 0 {
		return nil, ErrTrailing
	}
	return DecodeArtifact(payload)
}

// DecodeArtifactAuto decodes an artifact file in either encoding: a wire
// frame (binary snapshots) or the JSON document of the pre-binary era. The
// sniff is unambiguous — JSON artifacts start with '{', frames with the
// magic bytes "ARW1".
func DecodeArtifactAuto(data []byte) (*election.Compiled, error) {
	if IsFrame(data) {
		return DecodeArtifactFrame(data)
	}
	return election.UnmarshalCompiled(data)
}
