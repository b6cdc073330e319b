package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// This file holds the admit record (key, configuration text, compiled
// artifact), which the journal, snapshots and key migration carry, with
// its one encoder, and the one recovery path that reads records back.
//
// A recovery is one run of records, oldest first: a snapshot's entries,
// then in Open the journal's admit and evict records. An install replaces
// and an evict removes, so a key's state after applying the run in order
// is set by its newest record that applies. The loader applies only that
// one, falling back to older records of the key while one cannot be
// applied (an artifact election.Load rejects, an undecodable body): each
// surviving key is loaded once, wherever its newest record lives, and a
// checkpoint entry the journal re-admits or evicts is never loaded.

// appendAdmitRecord appends key's admit record for d to dst. The artifact
// aliases d's lists, so the caller must own d (a builder before the
// install) or hold its entry's read lock, which keeps a displacement, and
// with it a rebuild into d's memory, away until the record is encoded.
func appendAdmitRecord(dst []byte, key string, d *election.Dedicated) []byte {
	return wire.AppendWALAdmitFrame(dst, &wire.WALAdmit{Key: key, Config: d.Config.Marshal(), Artifact: d.Compile()})
}

// appendRecord appends the entry's admit record to dst under the entry's
// read lock, as elections read it, and returns the configuration's node
// count; ok is false for an entry an eviction tombstoned.
func (e *entry) appendRecord(dst []byte, key string) (rec []byte, nodes int, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.d == nil {
		return dst, 0, false
	}
	return appendAdmitRecord(dst, key, e.d), e.d.Config.N(), true
}

// record is one record of a recovery run.
type record struct {
	// payload is a wire frame or a JSON-era journal record. A version-1
	// snapshot entry has none: its files are read when it is tried.
	payload []byte
	// key is the key the record names; keyed is false for a journal record
	// whose envelope cannot be peeked, which is tried alone to report it.
	key   string
	keyed bool
	// prev is the run position of the key's previous record, or -1; head
	// marks a record a loader starts from, its key's newest or one without
	// a key (see link).
	prev int
	head bool
	// The outcome, set by the one loader that tries the record: op is the
	// operation as far as it decoded, and err why it did not apply; a
	// record passed over has neither. A snapshot entry missing from its
	// entries file starts out with err set and is never tried.
	op  string
	err error
}

// recovery is one run of records: the entries of a snapshot, one per
// manifest entry in manifest order, then the journal's intact records in
// journal order.
type recovery struct {
	dir   string    // the snapshot's directory, for version-1 entries' files
	m     *Manifest // the snapshot's manifest; nil without a snapshot
	nsnap int       // the number of snapshot entries leading the run
	recs  []record

	// next is the run position the next idle loader claims.
	next    atomic.Int64
	loaders sync.WaitGroup
}

// addSnapshot starts the run with the entries of the snapshot in dir. A
// version-2 snapshot's entries file is scanned here, once: an entry's
// record is the first intact admit record of its key (records of keys the
// manifest does not list are ignored), and an entry without one is framing
// damage, reported even when a newer record of its key applies.
func (rc *recovery) addSnapshot(dir string, m *Manifest) {
	rc.dir, rc.m, rc.nsnap = dir, m, len(m.Entries)
	rc.recs = make([]record, 0, len(m.Entries))
	var found map[string][]byte
	var lost error
	if m.Version != 1 {
		found = make(map[string][]byte, len(m.Entries))
		var fr *wal.Report
		fr, lost = wal.ReadFile(filepath.Join(dir, m.EntriesFile), func(payload []byte) error {
			if typ, body, rest, err := wire.DecodeFrame(payload); err == nil && len(rest) == 0 && typ == wire.FrameWALAdmit {
				if key, ok := wire.PeekWALKey(typ, body); ok && found[key] == nil {
					found[key] = payload
				}
			}
			return nil
		})
		if lost == nil && !fr.Clean() {
			lost = fmt.Errorf("no intact record in %s (first of %d faults: %v)", m.EntriesFile, len(fr.Faults), fr.Faults[0])
		} else if lost == nil {
			lost = fmt.Errorf("no admit record in %s", m.EntriesFile)
		}
	}
	for _, me := range m.Entries {
		rec := record{key: me.Key, keyed: true}
		if m.Version != 1 {
			if rec.payload = found[me.Key]; rec.payload == nil {
				rec.err = lost
			}
		}
		rc.recs = append(rc.recs, rec)
	}
}

// addJournal appends the intact records of the journal in dir, peeking
// only their keys: artifacts are decoded later, and only for the records
// the loader tries. wal.Replay truncates torn tails on first contact, and
// its report is the account of what it found.
func (rc *recovery) addJournal(dir string) (*wal.Report, error) {
	return wal.Replay(dir, func(payload []byte) error {
		key, ok := peekKey(payload)
		rc.recs = append(rc.recs, record{payload: payload, key: key, keyed: ok})
		return nil
	})
}

// peekKey sniffs one journal record's key without decoding its body, in
// either encoding era.
func peekKey(payload []byte) (key string, ok bool) {
	if wire.IsFrame(payload) {
		typ, body, rest, err := wire.DecodeFrame(payload)
		if err != nil || len(rest) != 0 {
			return "", false
		}
		return wire.PeekWALKey(typ, body)
	}
	var env struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(payload, &env); err != nil {
		return "", false
	}
	return env.Key, true
}

// link links each record to the previous record of its key and marks the
// heads loaders start from. A snapshot entry missing from its entries file
// is neither linked nor a head: it is never tried.
func (rc *recovery) link() {
	last := make(map[string]int, len(rc.recs))
	for i := range rc.recs {
		rec := &rc.recs[i]
		rec.prev, rec.head = -1, rec.err == nil
		if !rec.keyed || rec.err != nil {
			continue
		}
		if p, ok := last[rec.key]; ok {
			rec.prev, rc.recs[p].head = p, false
		}
		last[rec.key] = i
	}
}

// loadRun applies the run: each key's newest record that applies sets the
// key's state. Loaders, one per core with the caller one of them, each
// claim the next head and try its key's records newest first until one
// applies. Installs and evictions take the shard's mutex, so loaders need
// no other lock.
func (r *Registry) loadRun(rc *recovery) {
	rc.link()
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(rc.recs)); w++ {
		rc.loaders.Add(1)
		go func() {
			defer rc.loaders.Done()
			r.loadHeads(rc)
		}()
	}
	r.loadHeads(rc)
	rc.loaders.Wait()
}

// loadHeads is one loader of loadRun.
func (r *Registry) loadHeads(rc *recovery) {
	for {
		i := int(rc.next.Add(1)) - 1
		if i >= len(rc.recs) {
			return
		}
		if !rc.recs[i].head {
			continue
		}
		j := i
		for j >= 0 && !r.apply(rc, j) {
			j = rc.recs[j].prev
		}
	}
}

// apply tries record i of the run on the calling goroutine: it evicts the
// record's key or loads its artifact, records the outcome on the record,
// and reports whether the record applied.
func (r *Registry) apply(rc *recovery, i int) bool {
	rec := &rc.recs[i]
	var a wire.WALAdmit
	if rec.payload != nil {
		rec.op, a, rec.err = decodeRecord(rec.payload)
	} else {
		rec.op, a.Key = walOpAdmit, rec.key
		a.Config, a.Artifact, rec.err = readV1Entry(rc.dir, rc.m.Entries[i])
	}
	if rec.err == nil && rec.op == walOpEvict {
		r.evict(a.Key, nil)
	} else if rec.err == nil {
		rec.err = r.load(a.Key, a.Config, a.Artifact)
	}
	return rec.err == nil
}

// decodeRecord decodes one record in either encoding era: a wire frame,
// admit or evict, or a JSON-era journal record. An evict record carries
// only its key. op names the operation as far as the record decoded.
func decodeRecord(payload []byte) (op string, rec wire.WALAdmit, err error) {
	if !wire.IsFrame(payload) {
		var jr walRecord
		if err := json.Unmarshal(payload, &jr); err != nil {
			return "", rec, fmt.Errorf("undecodable record: %v", err)
		}
		if jr.Op != walOpAdmit && jr.Op != walOpEvict {
			return jr.Op, rec, fmt.Errorf("unknown op %q", jr.Op)
		}
		return jr.Op, wire.WALAdmit{Key: jr.Key, Config: jr.Config, Artifact: jr.Artifact}, nil
	}
	typ, body, rest, err := wire.DecodeFrame(payload)
	switch {
	case err != nil:
		return "", rec, fmt.Errorf("undecodable record frame: %v", err)
	case len(rest) != 0:
		return "", rec, errors.New("trailing bytes after record frame")
	case typ == wire.FrameWALAdmit:
		if err := rec.DecodeFrom(body); err != nil {
			return walOpAdmit, rec, fmt.Errorf("undecodable admit record: %v", err)
		}
		return walOpAdmit, rec, nil
	case typ == wire.FrameWALEvict:
		var ev wire.WALEvict
		if err := ev.DecodeFrom(body); err != nil {
			return walOpEvict, rec, fmt.Errorf("undecodable evict record: %v", err)
		}
		return walOpEvict, wire.WALAdmit{Key: ev.Key}, nil
	}
	return "", rec, fmt.Errorf("unexpected record frame type %v", typ)
}

// readV1Entry reads a version-1 snapshot entry's configuration text and
// artifact, whose encoding (a wire frame, or a JSON-era document) is
// sniffed from its leading bytes.
func readV1Entry(dir string, me ManifestEntry) (string, *election.Compiled, error) {
	cfgData, err := os.ReadFile(filepath.Join(dir, me.ConfigFile))
	if err != nil {
		return "", nil, err
	}
	artData, err := os.ReadFile(filepath.Join(dir, me.ArtifactFile))
	if err != nil {
		return "", nil, err
	}
	artifact, err := wire.DecodeArtifactAuto(artData)
	return string(cfgData), artifact, err
}

// load parses an admit record's configuration, loads its artifact with
// election.Load and installs the algorithm under key on the calling
// goroutine; installs journal nothing without a record.
func (r *Registry) load(key, cfgText string, artifact *election.Compiled) error {
	if artifact == nil {
		return errors.New("admit record without an artifact")
	}
	cfg, err := config.Unmarshal(cfgText)
	if err != nil {
		return fmt.Errorf("parsing configuration: %w", err)
	}
	d, err := election.Load(artifact, cfg)
	if err != nil {
		return fmt.Errorf("loading artifact: %w", err)
	}
	_, _ = r.install(key, d, nil)
	r.artifactLoads.Add(1)
	return nil
}

// account fills report from the run. The checkpoint's report counts the
// entries that set their key's state and lists, in manifest order, those
// tried and rejected or missing from their entries file; an entry a newer
// record superseded was never read and is in neither. Each journal record
// is an applied admit or evict, a skipped record (in journal order), or one
// compacted because a newer record of its key applied.
func (rc *recovery) account(report *RecoveryReport) {
	ck := &report.Checkpoint
	for _, rec := range rc.recs[:rc.nsnap] {
		if rec.err != nil {
			ck.Skipped = append(ck.Skipped, RestoreSkip{Key: rec.key, Reason: fmt.Sprintf("service: restoring %q: %v", rec.key, rec.err)})
		} else if rec.op != "" {
			ck.Entries++
		}
	}
	for i, rec := range rc.recs[rc.nsnap:] {
		switch {
		case rec.err != nil:
			report.Skipped = append(report.Skipped, RecordFault{Index: i, Op: rec.op, Key: rec.key, Reason: rec.err.Error()})
		case rec.op == "":
			report.Compacted++
		case rec.op == walOpEvict:
			report.Evicts++
		default:
			report.Admits++
		}
	}
}
