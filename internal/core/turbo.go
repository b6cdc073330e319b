package core

import (
	"fmt"
	"slices"
	"sync"

	"anonradio/internal/arena"
	"anonradio/internal/config"
	"anonradio/internal/fnv"
	"anonradio/internal/graph"
)

// This file contains the turbo classifier: a second implementation of the
// Classifier (after the paper-faithful Classify) engineered for throughput.
// The refinement semantics — and therefore the produced verdicts,
// partitions, labels and lists — are identical to Classify's; only the
// data layout (and the Stats operation counters, which describe the
// implementation rather than the result) changes:
//
//   - labels are flat arrays of (class, round, multi) triples packed into
//     uint64s, built per iteration in one shared arena instead of one
//     []Triple per node per iteration;
//   - refinement groups nodes by FNV-1a hashes over those integers instead
//     of scanning every class representative, resolved through a reusable
//     open-addressing table with full key verification (hash collisions can
//     never mis-classify);
//   - short neighbourhood lists are ordered with an allocation-free
//     insertion sort (they arrive nearly sorted, since neighbour lists are
//     sorted and classes correlate with node order);
//   - adjacency is read in place from the graph's compressed sparse rows,
//     so one node's neighbourhood is one contiguous memory range and a run
//     copies no adjacency;
//   - all scratch state lives in a Turbo value that is reused across
//     iterations and across configurations, so the steady-state per-call
//     allocation cost is just the Report being returned.
//
// ClassifyOptions{RecordSnapshots: false} additionally skips the
// per-iteration snapshot/label materialization for callers that only need
// the verdict, the leader and the lists L_j (feasibility surveys, election
// building): only the final snapshot is kept.

// ClassifyOptions control how much of the Classifier run is materialized in
// the Report.
type ClassifyOptions struct {
	// RecordSnapshots controls whether the Report retains the partition
	// after every iteration. When true the Report carries the same verdict,
	// leader, iteration count, snapshots (classes, labels, representatives)
	// and lists as the one produced by Classify (the Stats operation
	// counters are the one exception: they count the turbo implementation's
	// own operations). When false (the lean mode used by batch surveys
	// and every election build) Report.Snapshots holds only the final
	// partition, with nil Labels — per-iteration accessors such as ClassOf
	// and PartitionAfter need a recorded run — while Decision, Leader,
	// LeaderClass, Lists, Iterations() and Stats.Iterations are unaffected.
	RecordSnapshots bool
}

// packed triple layout: class in bits 63..32, round in bits 31..1, multi in
// bit 0. Unsigned comparison of packed values is exactly the ≺hist order of
// Definition 3.1 (class, then round, then 1 before ∗).
const (
	packClassShift = 32
	packRoundShift = 1
	packMultiBit   = 1
	// maxTurboSpan bounds the span for which rounds fit the packed layout;
	// larger spans (never seen in practice) fall back to Classify.
	maxTurboSpan = 1<<30 - 2
)

func packPair(class int32, round int32) uint64 {
	return uint64(uint32(class))<<packClassShift | uint64(uint32(round))<<packRoundShift
}

func unpackTriple(p uint64) Triple {
	return Triple{
		Class: int(p >> packClassShift),
		Round: int((p >> packRoundShift) & 0x7fffffff),
		Multi: p&packMultiBit != 0,
	}
}

// Turbo is a reusable allocation-free classifier engine. The zero value is
// ready to use; a Turbo must not be used from multiple goroutines
// concurrently (give each worker its own, as ClassifyBatch does).
type Turbo struct {
	tags    []int32  // wake-up tags of the current configuration
	classes []int32  // partition before the current iteration (1-based)
	next    []int32  // partition after the current iteration
	reps    []int32  // representative node of each class
	sizes   []int32  // class-size scratch for the singleton check
	labOff  []int32  // labOff[v]..labOff[v+1] delimit v's packed label
	lab     []uint64 // packed-triple arena, reset every iteration
	nbuf    []uint64 // per-node packed-pair buffer
	hashes  []uint64 // FNV-1a hash of (oldClass, label) per node
	table   []int32  // open-addressing table: class number or 0 (empty)
}

// NewTurbo returns a reusable turbo classifier engine.
func NewTurbo() *Turbo { return &Turbo{} }

var turboPool = sync.Pool{New: func() any { return NewTurbo() }}

// ClassifyTurbo runs the turbo classifier on cfg. It is a drop-in
// replacement for Classify when opts.RecordSnapshots is true; with
// RecordSnapshots false it skips the per-iteration snapshot clones (see
// ClassifyOptions). Scratch state is drawn from a shared pool; callers that
// classify many configurations in a loop get steady-state scratch reuse for
// free, and callers that need explicit control can hold a Turbo themselves.
func ClassifyTurbo(cfg *config.Config, opts ClassifyOptions) (*Report, error) {
	t := turboPool.Get().(*Turbo)
	rep, err := t.Classify(cfg, opts)
	turboPool.Put(t)
	return rep, err
}

// Classify runs the turbo classifier on cfg reusing the engine's scratch
// arena. The returned Report owns all of its memory: it remains valid after
// the engine is reused for another configuration.
func (t *Turbo) Classify(cfg *config.Config, opts ClassifyOptions) (*Report, error) {
	return t.ClassifyInto(nil, cfg, opts)
}

// ClassifyInto is Classify recycling the memory of a previous Report —
// typically the retained report of an evicted or displaced configuration —
// for the new one: the Report struct itself, its list and snapshot slices,
// every per-list entry slice and every label. A run over a configuration of
// the same shape as prev's reaches a steady state of zero heap allocations.
// prev must not be used after the call (its buffers now belong to the
// result); prev == nil is exactly Classify. The verdicts, lists, labels and
// snapshots are bit-identical to a fresh run's — reuse changes where the
// memory comes from, never what it holds.
func (t *Turbo) ClassifyInto(prev *Report, cfg *config.Config, opts ClassifyOptions) (*Report, error) {
	if cfg == nil {
		return nil, fmt.Errorf("core: nil configuration")
	}
	cfg = cfg.Normalized()
	if cfg.Span() > maxTurboSpan {
		// Rounds would overflow the packed layout; delegate to the
		// reference implementation, which has no span limit (and no reuse
		// — spans this size never churn).
		return Classify(cfg)
	}
	n := cfg.N()
	sigma := int32(cfg.Span())
	t.reset(cfg)

	report := prev
	if report == nil {
		report = &Report{}
	}
	// Reset the report while keeping the list/snapshot backing: truncating
	// to length zero leaves the previous run's List and Snapshot values in
	// the spare capacity, where nextList/nextSnapshot recover their entry
	// and label buffers slot by slot.
	*report = Report{Config: cfg, Leader: -1, Lists: report.Lists[:0], Snapshots: report.Snapshots[:0]}
	if opts.RecordSnapshots {
		s := nextSnapshot(report)
		*s = t.snapshotInto(*s, t.classes, 1, initLabels)
	}
	l0 := nextList(report)
	l0.Terminate = false
	l0.Entries = growKeep(l0.Entries, 1)
	l0.Entries[0] = ListEntry{OldClass: 1, Label: nil}

	numClasses := int32(1)
	maxIter := (n + 1) / 2
	for i := 1; i <= maxIter; i++ {
		oldCount := numClasses
		numClasses = t.refine(cfg.Graph(), sigma, numClasses, &report.Stats)
		report.Stats.Iterations++

		singleton := t.singletonClass(numClasses)
		noChange := numClasses == oldCount

		if singleton != 0 || noChange {
			lt := nextList(report)
			lt.Terminate = true
			lt.Entries = nil
			// Lean mode keeps the final partition but no label slots: the
			// callers that opt out of snapshots only consume the verdict,
			// the class structure and the lists.
			labels := noLabels
			if opts.RecordSnapshots {
				labels = iterationLabels
			}
			final := nextSnapshot(report)
			*final = t.snapshotInto(*final, t.next, numClasses, labels)
			if singleton != 0 {
				report.Decision = Feasible
				report.LeaderClass = int(singleton)
				for v := 0; v < n; v++ {
					if t.next[v] == singleton {
						report.Leader = v
						break
					}
				}
			} else {
				report.Decision = Infeasible
			}
			return report, nil
		}

		// Build L_{i+1}: for each class of the refined partition, the pair
		// (class of its representative before this iteration, label assigned
		// to the representative by this iteration).
		l := nextList(report)
		l.Terminate = false
		entries := growKeep(l.Entries, int(numClasses))
		for k := int32(1); k <= numClasses; k++ {
			rep := t.reps[k-1]
			entries[k-1] = ListEntry{
				OldClass: int(t.classes[rep]),
				Label:    t.unpackLabelInto(entries[k-1].Label, rep),
			}
		}
		l.Entries = entries

		if opts.RecordSnapshots {
			s := nextSnapshot(report)
			*s = t.snapshotInto(*s, t.next, numClasses, iterationLabels)
		}
		t.classes, t.next = t.next, t.classes
	}
	return nil, fmt.Errorf("core: turbo classifier did not converge within %d iterations on %s", maxIter, cfg)
}

// nextList extends report.Lists by one slot and returns it. Growth within
// capacity re-exposes the List value a previous run left in the slot, so
// its entry slice and labels get recycled by the caller.
func nextList(report *Report) *List {
	if len(report.Lists) < cap(report.Lists) {
		report.Lists = report.Lists[:len(report.Lists)+1]
	} else {
		report.Lists = append(report.Lists, List{})
	}
	return &report.Lists[len(report.Lists)-1]
}

// nextSnapshot is nextList for the snapshot slice.
func nextSnapshot(report *Report) *Snapshot {
	if len(report.Snapshots) < cap(report.Snapshots) {
		report.Snapshots = report.Snapshots[:len(report.Snapshots)+1]
	} else {
		report.Snapshots = append(report.Snapshots, Snapshot{})
	}
	return &report.Snapshots[len(report.Snapshots)-1]
}

// growKeep returns a length-n slice reusing s's backing array, carrying the
// spare-capacity elements (and the buffers they hold) over on reallocation
// so recycled labels survive a growth step.
func growKeep[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]T, n)
	copy(ns, s[:cap(s)])
	return ns
}

// reset prepares the scratch arena for a run on cfg: Init-Aug state (every
// node in class 1, node 0 its representative).
func (t *Turbo) reset(cfg *config.Config) {
	n := cfg.N()
	t.tags = arena.Grow(t.tags, n)
	for v := 0; v < n; v++ {
		t.tags[v] = int32(cfg.Tag(v))
	}
	t.classes = arena.Grow(t.classes, n)
	for v := range t.classes {
		t.classes[v] = 1
	}
	t.next = arena.Grow(t.next, n)
	t.reps = append(t.reps[:0], 0)
	t.sizes = arena.Grow(t.sizes, n)
	t.labOff = arena.Grow(t.labOff, n+1)
	t.lab = t.lab[:0]
	if d := cfg.MaxDegree(); cap(t.nbuf) < d {
		t.nbuf = make([]uint64, 0, d)
	}
	t.hashes = arena.Grow(t.hashes, n)
	// Table sized to the next power of two >= 4n keeps the load factor
	// under 1/4; it is reset (zeroed) once per iteration.
	size := 4
	for size < 4*n {
		size *= 2
	}
	if cap(t.table) < size {
		t.table = make([]int32, size)
	} else {
		t.table = t.table[:size]
	}
}

// refine executes one Partitioner+Refine iteration (Algorithms 3 and 2) on
// the packed representation: it fills the label arena, hashes every node's
// (old class, label) key, and assigns new class numbers through the
// open-addressing table. It reads g's rows in place and t.classes, and
// writes t.next and t.reps, returning the new class count.
func (t *Turbo) refine(g *graph.Graph, sigma, numClasses int32, stats *Stats) int32 {
	n := len(t.classes)
	off, nbr := g.CSR()
	t.lab = t.lab[:0]
	t.labOff[0] = 0

	// Partitioner: build every node's label as a sorted run of packed
	// (class, round) pairs with duplicates collapsed into collision triples.
	for v := 0; v < n; v++ {
		cv, tv := t.classes[v], t.tags[v]
		nbuf := t.nbuf[:0]
		for _, w := range nbr[off[v]:off[v+1]] {
			cw, tw := t.classes[w], t.tags[w]
			if cw == cv && tw == tv {
				// v and w transmit simultaneously in this phase: v hears
				// nothing from w and detects no collision.
				continue
			}
			nbuf = append(nbuf, packPair(cw, sigma+1+tw-tv))
		}
		sortPacked(nbuf)
		h := uint64(fnv.Offset64)
		h = fnv.Mix64(h, uint64(uint32(cv)))
		for i := 0; i < len(nbuf); {
			j := i + 1
			for j < len(nbuf) && nbuf[j] == nbuf[i] {
				j++
			}
			p := nbuf[i]
			if j-i > 1 {
				p |= packMultiBit
			}
			t.lab = append(t.lab, p)
			h = fnv.Mix64(h, p)
			stats.TripleInsertions++
			i = j
		}
		t.labOff[v+1] = int32(len(t.lab))
		t.hashes[v] = h
		t.nbuf = nbuf[:0]
	}

	// Refine: group nodes by the (old class, label) key. Existing classes
	// keep their numbers (their representatives are inserted first); new
	// classes are numbered in order of the first node that joins them,
	// matching the representative-scan implementation exactly.
	clear(t.table)
	mask := uint64(len(t.table) - 1)
	for k := int32(1); k <= numClasses; k++ {
		rep := t.reps[k-1]
		slot := t.hashes[rep] & mask
		for t.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.table[slot] = k
	}
	for v := 0; v < n; v++ {
		stats.LabelComparisons++
		slot := t.hashes[v] & mask
		for {
			k := t.table[slot]
			if k == 0 {
				numClasses++
				t.table[slot] = numClasses
				t.reps = append(t.reps, int32(v))
				t.next[v] = numClasses
				break
			}
			rep := t.reps[k-1]
			if t.hashes[rep] == t.hashes[v] && t.classes[rep] == t.classes[v] && t.sameLabel(rep, int32(v)) {
				t.next[v] = k
				break
			}
			slot = (slot + 1) & mask
		}
	}
	return numClasses
}

// sameLabel reports whether nodes a and b were assigned identical labels in
// the current iteration.
func (t *Turbo) sameLabel(a, b int32) bool {
	la := t.lab[t.labOff[a]:t.labOff[a+1]]
	lb := t.lab[t.labOff[b]:t.labOff[b+1]]
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			return false
		}
	}
	return true
}

// sortPacked orders packed pairs ascending, which is exactly ≺hist. The
// lists are typically short and arrive nearly sorted (neighbour lists are
// sorted by node, and class/round correlate with node order), so insertion
// sort wins; long lists fall back to the standard allocation-free sort.
func sortPacked(s []uint64) {
	if len(s) > 32 {
		slices.Sort(s)
		return
	}
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i - 1
		for j >= 0 && s[j] > x {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = x
	}
}

// singletonClass returns the smallest class (1-based) of size one in t.next,
// or 0 if none exists.
func (t *Turbo) singletonClass(numClasses int32) int32 {
	sizes := t.sizes[:numClasses]
	for i := range sizes {
		sizes[i] = 0
	}
	for _, c := range t.next {
		sizes[c-1]++
	}
	for k, size := range sizes {
		if size == 1 {
			return int32(k + 1)
		}
	}
	return 0
}

// unpackLabel materializes node v's label from the packed arena.
func (t *Turbo) unpackLabel(v int32) Label {
	return t.unpackLabelInto(nil, v)
}

// unpackLabelInto materializes node v's label into dst's backing array
// (grown when too small). An empty label is nil, exactly as the baseline
// partitioner leaves it — never a zero-length slice.
func (t *Turbo) unpackLabelInto(dst Label, v int32) Label {
	packed := t.lab[t.labOff[v]:t.labOff[v+1]]
	if len(packed) == 0 {
		// A node that hears nothing keeps the nil label, exactly as the
		// baseline partitioner leaves it.
		return nil
	}
	if cap(dst) < len(packed) {
		dst = make(Label, len(packed))
	} else {
		dst = dst[:len(packed)]
	}
	for i, p := range packed {
		dst[i] = unpackTriple(p)
	}
	return dst
}

// labelSlots is what a snapshot keeps in its Labels field.
type labelSlots uint8

const (
	// noLabels leaves Labels nil: a lean run's final snapshot.
	noLabels labelSlots = iota
	// initLabels keeps one nil label per node: snapshot 0 of a recorded run,
	// matching Init-Aug.
	initLabels
	// iterationLabels keeps the labels of the current iteration.
	iterationLabels
)

// snapshotInto materializes the partition in the given class array as a
// heap-owned Snapshot, recycling prev's buffers, with the labels that
// labels selects.
func (t *Turbo) snapshotInto(prev Snapshot, classes []int32, numClasses int32, labels labelSlots) Snapshot {
	n := len(classes)
	s := Snapshot{
		Classes:    arena.Grow(prev.Classes, n),
		NumClasses: int(numClasses),
		Reps:       arena.Grow(prev.Reps, int(numClasses)),
	}
	for v, c := range classes {
		s.Classes[v] = int(c)
	}
	for k := int32(0); k < numClasses; k++ {
		s.Reps[k] = int(t.reps[k])
	}
	switch labels {
	case initLabels:
		s.Labels = growKeep(prev.Labels, n)
		for v := range s.Labels {
			s.Labels[v] = nil
		}
	case iterationLabels:
		s.Labels = growKeep(prev.Labels, n)
		for v := int32(0); v < int32(n); v++ {
			s.Labels[v] = t.unpackLabelInto(s.Labels[v], v)
		}
	}
	return s
}
