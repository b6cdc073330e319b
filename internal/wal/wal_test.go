package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// payloads returns n distinct test payloads of varying size.
func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := []byte(fmt.Sprintf("record-%04d:", i))
		for len(p) < 16+13*i%97 {
			p = append(p, byte('a'+i%26))
		}
		out[i] = p
	}
	return out
}

// appendRecord writes one record and waits for it as the sync policy asks,
// the way the registry journals a mutation.
func appendRecord(l *Log, payload []byte) error {
	seq, err := l.Write(payload)
	if err != nil {
		return err
	}
	return l.Wait(seq)
}

// appendAll opens a log in dir, appends every payload, and closes it.
func appendAll(t *testing.T, dir string, opts Options, recs [][]byte) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i, p := range recs {
		if err := appendRecord(l, p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// replayAll returns every replayed payload and the report.
func replayAll(t *testing.T, dir string) ([][]byte, *Report) {
	t.Helper()
	var got [][]byte
	report, err := Replay(dir, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, report
}

func checkRecords(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// activeSegment returns the single segment file in dir (for tests that
// wrote one segment) or the last one.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	paths, _, err := listSegments(dir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return paths[len(paths)-1]
}

func TestRoundTripAllPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch, SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			recs := payloads(64)
			appendAll(t, dir, Options{Sync: policy}, recs)
			got, report := replayAll(t, dir)
			checkRecords(t, got, recs)
			if !report.Clean() {
				t.Fatalf("clean journal reported faults: %+v", report.Faults)
			}
		})
	}
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := appendRecord(l, []byte(fmt.Sprintf("g%02d-i%03d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, report := replayAll(t, dir)
	if len(got) != goroutines*per || !report.Clean() {
		t.Fatalf("replayed %d records (faults %v), want %d clean", len(got), report.Faults, goroutines*per)
	}
	if st := l.Stats(); st.Appends != goroutines*per {
		t.Fatalf("stats appends %d, want %d", st.Appends, goroutines*per)
	}
}

// TestWriteThenWait pins the two halves of an append: Write returns
// consecutive sequence numbers and, under SyncAlways, leaves its record
// unsynced until a Wait, and one Wait covers every record written before
// it. Records replay in Write order.
func TestWriteThenWait(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	recs := payloads(3)
	for i, p := range recs {
		seq, err := l.Write(p)
		if err != nil || seq != uint64(i+1) {
			t.Fatalf("write %d: seq %d, %v", i, seq, err)
		}
	}
	st := l.Stats()
	if st.Unsynced != 3 {
		t.Fatalf("stats before Wait %+v, want 3 unsynced", st)
	}
	if err := l.Wait(3); err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(1); err != nil {
		t.Fatal(err)
	}
	if after := l.Stats(); after.Unsynced != 0 || after.Syncs != st.Syncs+1 {
		t.Fatalf("stats after Wait %+v, want lag 0 after one fsync", after)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	checkRecords(t, got, recs)
}

// TestTornTailTruncated injects the classic kill -9 residue: the final
// record is cut mid-payload. Replay must deliver everything before it,
// truncate the tail, and a second replay must be clean.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(20)
	appendAll(t, dir, Options{Sync: SyncAlways}, recs)
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	got, report := replayAll(t, dir)
	checkRecords(t, got, recs[:19])
	if report.TruncatedBytes == 0 || len(report.Faults) != 1 {
		t.Fatalf("report %+v, want one torn-tail fault with truncated bytes", report)
	}
	// The truncation is physical: the next boot replays clean.
	got, report = replayAll(t, dir)
	checkRecords(t, got, recs[:19])
	if !report.Clean() {
		t.Fatalf("second replay still reports faults: %+v", report.Faults)
	}
}

// TestCorruptInteriorSkipped flips a byte inside an interior record's
// payload: that record is skipped, every other record survives.
func TestCorruptInteriorSkipped(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(10)
	appendAll(t, dir, Options{Sync: SyncAlways}, recs)
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Locate record 4's payload by walking the frames, then flip one byte.
	off := segmentHeaderSize
	for i := 0; i < 4; i++ {
		length := int(binary.LittleEndian.Uint32(data[off+4:]))
		off += headerSize + length
	}
	data[off+headerSize] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, report := replayAll(t, dir)
	want := append(append([][]byte(nil), recs[:4]...), recs[5:]...)
	checkRecords(t, got, want)
	if len(report.Faults) != 1 || report.SkippedBytes == 0 {
		t.Fatalf("report %+v, want one corrupt-record fault with skipped bytes", report)
	}
}

// TestCorruptHeaderResync zeroes a record's whole header (magic included):
// replay must resynchronize on the next frame, not mistake garbage for it.
func TestCorruptHeaderResync(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(6)
	appendAll(t, dir, Options{Sync: SyncAlways}, recs)
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := segmentHeaderSize
	for i := 0; i < 2; i++ {
		length := int(binary.LittleEndian.Uint32(data[off+4:]))
		off += headerSize + length
	}
	for i := 0; i < headerSize; i++ {
		data[off+i] = 0
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, report := replayAll(t, dir)
	want := append(append([][]byte(nil), recs[:2]...), recs[3:]...)
	checkRecords(t, got, want)
	if len(report.Faults) != 1 {
		t.Fatalf("report %+v, want exactly one fault", report)
	}
}

// TestMagicInsidePayload pins the resynchronization scan against payloads
// that embed the frame magic: a corrupt record whose neighbor contains the
// magic bytes must not derail replay into the middle of a record.
func TestMagicInsidePayload(t *testing.T) {
	dir := t.TempDir()
	magic := binary.LittleEndian.AppendUint32(nil, frameMagic)
	recs := [][]byte{
		[]byte("first"),
		append(append([]byte("x"), magic...), []byte("embedded-magic-payload")...),
		[]byte("third"),
	}
	appendAll(t, dir, Options{Sync: SyncAlways}, recs)
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[segmentHeaderSize+headerSize] ^= 0xFF // corrupt record 0's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	checkRecords(t, got, recs[1:])
}

// TestRotateAndRemove drives the checkpoint primitive: rotation freezes
// segments, removal drops them, and replay sees exactly the surviving
// records across the segment boundary.
func TestRotateAndRemove(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	recs := payloads(9)
	for _, p := range recs[:4] {
		if err := appendRecord(l, p); err != nil {
			t.Fatal(err)
		}
	}
	frozen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if len(frozen) != 1 {
		t.Fatalf("frozen %v, want 1 segment", frozen)
	}
	for _, p := range recs[4:] {
		if err := appendRecord(l, p); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-removal replay sees everything (checkpoint overlap is the
	// caller's concern; the journal is just complete).
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	checkRecords(t, got, recs)
	if err := l.RemoveSegments(frozen); err != nil {
		t.Fatal(err)
	}
	got, report := replayAll(t, dir)
	checkRecords(t, got, recs[4:])
	if report.Segments != 1 {
		t.Fatalf("replayed %d segments after removal, want 1", report.Segments)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("stats segments %d, want 1", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A new boot opens a fresh segment after the surviving ones.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(l2, []byte("after-reboot")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = replayAll(t, dir)
	checkRecords(t, got, append(append([][]byte(nil), recs[4:]...), []byte("after-reboot")))
}

func TestStatsAndLag(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := appendRecord(l, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends != 5 || st.Unsynced != 5 {
		t.Fatalf("SyncOff stats %+v, want 5 appended and 5 unsynced", st)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Unsynced != 0 || st.Synced != 5 {
		t.Fatalf("post-Sync stats %+v, want lag 0", st)
	}
}

func TestClosedLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := appendRecord(l, []byte("late")); err != ErrClosed {
		t.Fatalf("append on closed log: %v, want ErrClosed", err)
	}
	if _, err := l.Rotate(); err != ErrClosed {
		t.Fatalf("rotate on closed log: %v, want ErrClosed", err)
	}
}

// TestHeaderlessSegmentReplays pins backward compatibility with format
// version 1: a segment whose records start at byte 0, with no segment
// header, replays cleanly alongside headered segments.
func TestHeaderlessSegmentReplays(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(5)
	var old []byte
	for _, p := range recs[:3] {
		old = binary.LittleEndian.AppendUint32(old, frameMagic)
		old = binary.LittleEndian.AppendUint32(old, uint32(len(p)))
		old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(p, castagnoli))
		old = append(old, p...)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), old, 0o644); err != nil {
		t.Fatal(err)
	}
	// A current-format boot appends after it in a fresh, headered segment.
	appendAll(t, dir, Options{Sync: SyncAlways}, recs[3:])
	got, report := replayAll(t, dir)
	checkRecords(t, got, recs)
	if !report.Clean() || report.Segments != 2 {
		t.Fatalf("mixed-version replay report %+v, want 2 clean segments", report)
	}
}

// TestNewerSegmentVersionSkipped pins the forward stance: a segment whose
// header claims a format this build does not know is skipped whole and
// reported, never scanned on guesses about its record encoding.
func TestNewerSegmentVersionSkipped(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(4)
	appendAll(t, dir, Options{Sync: SyncAlways}, recs[:2])
	future := binary.LittleEndian.AppendUint32(nil, segmentMagic)
	future = append(future, SegmentVersion+1, 0, 0, 0)
	future = append(future, []byte("records of a format from the future")...)
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)), future, 0o644); err != nil {
		t.Fatal(err)
	}
	got, report := replayAll(t, dir)
	checkRecords(t, got, recs[:2])
	if len(report.Faults) != 1 {
		t.Fatalf("report %+v, want exactly one newer-version fault", report)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"Batch", SyncBatch}, {" off ", SyncOff}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted an unknown policy")
	}
}

// BenchmarkWALAppend measures one record append under each sync policy —
// the per-admission durability cost the registry pays off the serve path.
func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 4096)
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch, SyncOff} {
		b.Run(policy.String(), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Sync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := appendRecord(l, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALReplay measures replaying a 1000-record journal — the boot
// cost recovery adds on top of the checkpoint restore.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 4096)
	const records = 1000
	for i := 0; i < records; i++ {
		if err := appendRecord(l, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(records * len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		report, err := Replay(dir, func(p []byte) error { n++; return nil })
		if err != nil || n != records || !report.Clean() {
			b.Fatalf("replay: %d records, %+v, %v", n, report, err)
		}
	}
}

// TestForeignFilesIgnored puts files beside the journal whose names only
// look like segments: listing, replay and a new boot must ignore them and
// leave them in place.
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(3)
	appendAll(t, dir, Options{Sync: SyncAlways}, recs)
	foreign := []string{"journal-x.wal", "journal-.wal", "journal-12x.wal", "journal--1.wal", "journal-00000001.wal.bak", "notes.txt"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paths, seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || filepath.Base(paths[0]) != segmentName(seqs[0]) {
		t.Fatalf("listed %v (seqs %v), want the one segment", paths, seqs)
	}
	got, _ := replayAll(t, dir)
	checkRecords(t, got, recs)
	appendAll(t, dir, Options{}, nil)
	if paths, _, _ := listSegments(dir); len(paths) != 2 {
		t.Fatalf("a new boot listed %v, want two segments", paths)
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("foreign file %s: %v", name, err)
		}
	}
}
