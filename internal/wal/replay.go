package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// This file is the read side of the journal: Replay walks the segments in
// sequence order and delivers every intact record, surviving the damage a
// crash can leave behind. The recovery stance is deliberate — a journal
// exists to make restarts a non-event, so replay never refuses to boot over
// a damaged record; it truncates or skips, and reports every such decision
// so the operator (and the tests) can see exactly what was lost.

// Fault is one recovery decision replay had to make.
type Fault struct {
	// Segment is the file name of the affected segment.
	Segment string
	// Offset is the byte offset the fault was detected at.
	Offset int64
	// Reason describes the fault and what replay did about it.
	Reason string
}

func (f Fault) String() string {
	return fmt.Sprintf("%s@%d: %s", f.Segment, f.Offset, f.Reason)
}

// Report summarizes one Replay.
type Report struct {
	// Segments is the number of segment files visited.
	Segments int
	// Records is the number of intact records delivered to the callback.
	Records int
	// SkippedBytes counts bytes of corrupt interior records skipped by
	// resynchronizing on the next verifiable frame, and the torn tail of a
	// file ReadFile read (it never truncates).
	SkippedBytes int64
	// TruncatedBytes counts torn or corrupt tail bytes physically truncated
	// off their segment.
	TruncatedBytes int64
	// Faults lists every recovery decision, in segment order.
	Faults []Fault
}

// Clean reports whether the replay saw no damage at all.
func (r *Report) Clean() bool { return len(r.Faults) == 0 }

// Replay delivers every intact record payload in dir's journal, oldest
// segment first, to fn. Damage is tolerated, not fatal:
//
//   - A torn or corrupt tail (the typical kill -9 residue: a frame that
//     runs past the end of its file, or trailing garbage with no further
//     valid frame) is truncated off the segment file, so the next boot
//     starts clean.
//   - A corrupt record mid-log (bit rot, a torn sector that later writes
//     survived) is skipped by scanning forward to the next frame whose
//     magic, length and CRC all verify; the intact records after it are
//     still delivered.
//
// Every decision lands in the report. Replay returns an error only when fn
// itself fails (the error aborts the replay) or a segment cannot be read
// at all. A payload aliases its segment's bytes, which Replay reads whole
// and never reuses: it stays valid after fn returns, and fn must not
// modify it.
func Replay(dir string, fn func(payload []byte) error) (*Report, error) {
	report := &Report{}
	paths, _, err := listSegments(dir)
	if err != nil {
		return report, err
	}
	for _, path := range paths {
		if err := scanFile(path, true, fn, report); err != nil {
			return report, err
		}
	}
	return report, nil
}

// AppendRecord appends payload to dst in the journal's record framing
// (magic, payload length, CRC-32C, payload): the records of a segment, and
// of any file ReadFile reads.
func AppendRecord(dst, payload []byte) []byte {
	return append(appendHeader(dst, payload), payload...)
}

// appendHeader appends the frame header of payload to dst.
func appendHeader(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// ReadFile delivers every intact record of the file at path (records
// framed by AppendRecord, with or without a segment header) to fn, with
// Replay's damage handling, except that it never modifies the file: a torn
// tail is reported, not truncated. Payloads stay valid after fn returns, as
// Replay's do.
func ReadFile(path string, fn func(payload []byte) error) (*Report, error) {
	report := &Report{}
	return report, scanFile(path, false, fn, report)
}

// scanFile scans one framed file, delivering intact records and recording
// recovery decisions; truncate says whether a torn tail is cut off the file
// (counted in TruncatedBytes) or left in place (counted in SkippedBytes).
func scanFile(path string, truncate bool, fn func(payload []byte) error, report *Report) error {
	name := filepath.Base(path)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: reading %s: %w", name, err)
	}
	report.Segments++
	off := 0
	// A segment header (format version 2+) precedes the records; its
	// absence means a version-1 segment, whose records start at byte 0 in
	// the same framing. A segment from a newer format than this build
	// understands is skipped whole — its record encoding cannot be assumed —
	// and reported, never silently misread.
	if len(data) >= segmentHeaderSize && binary.LittleEndian.Uint32(data) == segmentMagic {
		if v := data[4]; v > SegmentVersion {
			report.Faults = append(report.Faults, Fault{
				Segment: name,
				Reason:  fmt.Sprintf("segment format version %d is newer than the supported %d; segment skipped", v, SegmentVersion),
			})
			return nil
		}
		off = segmentHeaderSize
	}
	for off < len(data) {
		payload, n, ok := parseFrame(data[off:])
		if ok {
			if err := fn(payload); err != nil {
				return err
			}
			report.Records++
			off += n
			continue
		}
		// Corruption at off. Look for the next verifiable frame; finding
		// one means an interior record is damaged, finding none means the
		// tail is torn.
		next := findNextFrame(data, off+1)
		if next < 0 {
			dropped := len(data) - off
			reason := fmt.Sprintf("torn tail: %d trailing bytes with no intact record", dropped)
			if truncate {
				report.TruncatedBytes += int64(dropped)
				reason += ", truncated"
				if err := os.Truncate(path, int64(off)); err != nil {
					reason += fmt.Sprintf(" (truncate failed: %v; will be re-reported next boot)", err)
				}
			} else {
				report.SkippedBytes += int64(dropped)
				reason += ", left in place"
			}
			report.Faults = append(report.Faults, Fault{Segment: name, Offset: int64(off), Reason: reason})
			return nil
		}
		skipped := next - off
		report.SkippedBytes += int64(skipped)
		report.Faults = append(report.Faults, Fault{
			Segment: name,
			Offset:  int64(off),
			Reason:  fmt.Sprintf("corrupt record: skipped %d bytes to the next verifiable frame", skipped),
		})
		off = next
	}
	return nil
}

// parseFrame decodes one frame at the start of b, returning the payload and
// the frame size when the magic, length and CRC all verify.
func parseFrame(b []byte) (payload []byte, n int, ok bool) {
	if len(b) < headerSize {
		return nil, 0, false
	}
	if binary.LittleEndian.Uint32(b) != frameMagic {
		return nil, 0, false
	}
	length := int(binary.LittleEndian.Uint32(b[4:]))
	if length > MaxRecord || headerSize+length > len(b) {
		return nil, 0, false
	}
	payload = b[headerSize : headerSize+length]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[8:]) {
		return nil, 0, false
	}
	return payload, headerSize + length, true
}

// findNextFrame scans forward from offset from for the next fully
// verifiable frame start, or -1 when none exists. Verifying the whole frame
// (not just the magic) keeps a payload that happens to contain the magic
// bytes from derailing the resynchronization.
func findNextFrame(data []byte, from int) int {
	for i := from; i+headerSize <= len(data); i++ {
		if binary.LittleEndian.Uint32(data[i:]) != frameMagic {
			continue
		}
		if _, _, ok := parseFrame(data[i:]); ok {
			return i
		}
	}
	return -1
}
