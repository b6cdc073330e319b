package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own wrappers around the
// fleet's public seams — the generator's requests, the router's Handler(),
// the router's node calls (a RoundTripper in fleet.ClientOptions.HTTP), each
// node's Handler(), and service.Options.BuildHook — and derives every
// layer's self time from how the spans nest. The router forwards no request
// id, so only the router span carries the generator's id (a header the
// router ignores); node calls and node handler spans are matched to it by
// key and by time nesting.

// spanHeader carries the generator-minted span id to the router wrapper.
const spanHeader = "X-Fleetbench-Span"

type route uint8

const (
	routeOther route = iota
	routeElect
	routeBatch
	routeRegister
	routeEvict
)

var routeNames = [...]string{"other", "elect", "batch", "register", "evict"}

func routeOf(method, path string) route {
	switch {
	case method == http.MethodPost && path == "/v1/elect":
		return routeElect
	case method == http.MethodPost && path == "/v1/elect/batch":
		return routeBatch
	case method == http.MethodPost && path == "/v1/register":
		return routeRegister
	case method == http.MethodDelete && strings.HasPrefix(path, "/v1/configs/"):
		return routeEvict
	}
	return routeOther
}

type spanKind uint8

const (
	kindClient spanKind = iota // one generator request, end to end
	kindRouter                 // the router's Handler()
	kindCall                   // one router → node call
	kindNode                   // a node's Handler()
	kindBuild                  // a BuildHook call (a mark: start == end)
)

var kindNames = [...]string{"client", "router", "call", "node", "build"}

// spanRef is what the generator knows about its request: the route and the
// key index, or the batch index for a batch.
type spanRef struct {
	route route
	key   int32
	batch int32
}

type span struct {
	start, end int64 // ns since the tracer's epoch
	id         uint32
	key        int32 // first key index, -1 when unknown
	batch      int32
	nkeys      int32
	kind       spanKind
	node       int8
	route      route
}

// tracer holds the spans in memory until the run writes them out.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint32
	keys   map[string]int32 // key → index; read-only once the run starts
	// batches are serve-large's batches, so a batch span's keys resolve.
	batches [][]int
	// busy counts node calls answered 429 (each one the router retries
	// while attempts remain); calls counts node calls per route. Both
	// count whether or not spans are being recorded.
	busy  atomic.Int64
	calls [len(routeNames)]atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(in *inputs) *tracer {
	t := &tracer{epoch: time.Now(), keys: make(map[string]int32), batches: in.batches}
	for i, it := range in.stable {
		t.keys[it.key] = int32(i)
	}
	for i, it := range in.churn {
		t.keys[it.key] = int32(len(in.stable) + i)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset drops every recorded span.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) clientSpan(id uint32, start int64, ref spanRef) {
	t.add(span{start: start, end: t.now(), id: id, key: ref.key, batch: ref.batch, kind: kindClient, node: -1, route: ref.route})
}

// bodyKey extracts the first key of a JSON elect, batch or register body
// (the fleet client and the generator both put it first) and the number of
// keys it names.
func (t *tracer) bodyKey(b []byte) (int32, int32) {
	if i := bytes.Index(b, []byte(`"keys":["`)); i >= 0 {
		rest := b[i+len(`"keys":["`):]
		end := bytes.IndexByte(rest, '"')
		if end < 0 {
			return -1, 0
		}
		n := int32(1 + bytes.Count(rest, []byte(`","`)))
		return t.index(rest[:end]), n
	}
	if i := bytes.Index(b, []byte(`"key":"`)); i >= 0 {
		rest := b[i+len(`"key":"`):]
		if end := bytes.IndexByte(rest, '"'); end >= 0 {
			return t.index(rest[:end]), 1
		}
	}
	return -1, 0
}

func (t *tracer) index(key []byte) int32 {
	if i, ok := t.keys[string(key)]; ok {
		return i
	}
	return -1
}

func (t *tracer) requestKey(r route, path string, body []byte) (int32, int32) {
	if r == routeEvict {
		return t.index([]byte(strings.TrimPrefix(path, "/v1/configs/"))), 1
	}
	return t.bodyKey(body)
}

func nodeIndex(host string) int8 {
	for i, name := range nodeNames {
		if host == name {
			return int8(i)
		}
	}
	return -1
}

// routerHandler wraps the router's Handler().
func (t *tracer) routerHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 32)
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{start: start, end: t.now(), id: uint32(id), key: -1, kind: kindRouter, node: -1, route: routeOf(r.Method, r.URL.Path)})
	})
}

// nodeHandler wraps node idx's Handler(). It reads the request body to
// learn the key and hands the handler an identical in-memory body.
func (t *tracer) nodeHandler(idx int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := routeOf(r.Method, r.URL.Path)
		if !t.on.Load() || rt == routeOther {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		var body []byte
		if rt != routeEvict {
			var err error
			if body, err = io.ReadAll(r.Body); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		key, n := t.requestKey(rt, r.URL.Path, body)
		h.ServeHTTP(w, r)
		t.add(span{start: start, end: t.now(), key: key, nkeys: n, kind: kindNode, node: int8(idx), route: rt})
	})
}

// buildHook marks the moment node idx's builder starts an admission.
func (t *tracer) buildHook(idx int) func(string) {
	return func(key string) {
		if t.on.Load() {
			now := t.now()
			t.add(span{start: now, end: now, key: t.index([]byte(key)), kind: kindBuild, node: int8(idx), route: routeRegister})
		}
	}
}

// roundTripper wraps the router's node transport. A call's span ends when
// the router closes the response body, so it covers reading the answer.
func (t *tracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		rt := routeOf(req.Method, req.URL.Path)
		t.calls[rt].Add(1)
		resp, err := t.traceCall(next, req, rt)
		if err == nil && resp.StatusCode == http.StatusTooManyRequests {
			t.busy.Add(1)
		}
		return resp, err
	})
}

func (t *tracer) traceCall(next http.RoundTripper, req *http.Request, rt route) (*http.Response, error) {
	if !t.on.Load() || rt == routeOther {
		return next.RoundTrip(req)
	}
	var head []byte
	if req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			head, _ = io.ReadAll(io.LimitReader(rc, 4096))
			rc.Close()
		}
	}
	key, n := t.requestKey(rt, req.URL.Path, head)
	s := span{start: t.now(), key: key, nkeys: n, kind: kindCall, node: nodeIndex(req.URL.Hostname()), route: rt}
	resp, err := next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, s: s}
	return resp, nil
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// spanBody ends its call span when the body is closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// window is a time interval of the run, in tracer time.
type window struct{ from, to int64 }

func (w window) has(s *span) bool { return s.start >= w.from && s.start < w.to }

// traceStats is what the spans say about one phase of the run: mean self
// times per layer, in nanoseconds, and the counts behind them.
type traceStats struct {
	front, routerSelf, transport  float64 // per elect request / node call
	handlerElect, handlerRegister float64 // node handler span per call
	handlerPerElection            float64 // node handler span per election
	admissionWait                 float64 // node handler start → BuildHook
	requests, matchedCalls        int
	matchedNodes, calls, nodes    int
}

// analyze matches the spans and computes the self times of the elect route
// in load, and of the register route in reg.
func (t *tracer) analyze(load, reg window, electRoute route) traceStats {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	byKind := make([][]int, len(kindNames))
	for i := range spans {
		byKind[spans[i].kind] = append(byKind[spans[i].kind], i)
	}
	for _, idx := range byKind {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	clients := make(map[uint32]int, len(byKind[kindClient]))
	for _, i := range byKind[kindClient] {
		clients[spans[i].id] = i
	}
	var longest int64
	for i := range spans {
		longest = max(longest, spans[i].end-spans[i].start)
	}
	// parentOf finds, among candidates sorted by start, the latest-starting
	// span that encloses s and satisfies ok.
	parentOf := func(cands []int, s *span, ok func(p *span) bool) int {
		j := sort.Search(len(cands), func(j int) bool { return spans[cands[j]].start > s.start })
		for j--; j >= 0; j-- {
			p := &spans[cands[j]]
			if s.start-p.start > longest {
				break
			}
			if p.end >= s.end && ok(p) {
				return cands[j]
			}
		}
		return -1
	}
	// The router span's keys are its client span's.
	routerKeys := func(p *span, key int32) bool {
		c, ok := clients[p.id]
		if !ok || key < 0 {
			return false
		}
		cs := &spans[c]
		if cs.route == routeBatch && t.batches != nil {
			for _, k := range t.batches[cs.batch] {
				if int32(k) == key {
					return true
				}
			}
			return false
		}
		return cs.key == key || cs.key < 0
	}
	children := make(map[int][]int)
	var st traceStats
	for _, ci := range byKind[kindCall] {
		c := &spans[ci]
		st.calls++
		if p := parentOf(byKind[kindRouter], c, func(p *span) bool { return p.route == c.route && routerKeys(p, c.key) }); p >= 0 {
			children[p] = append(children[p], ci)
			st.matchedCalls++
		}
	}
	perNode := make([][]int, len(nodeNames))
	for _, ci := range byKind[kindCall] {
		if n := spans[ci].node; n >= 0 {
			perNode[n] = append(perNode[n], ci)
		}
	}
	callOf := make(map[int]int)
	nodeOfCall := make(map[int]int)
	for _, ni := range byKind[kindNode] {
		s := &spans[ni]
		st.nodes++
		if p := parentOf(perNode[s.node], s, func(p *span) bool { return p.route == s.route && p.key == s.key }); p >= 0 {
			callOf[ni] = p
			nodeOfCall[p] = ni
			st.matchedNodes++
		}
	}

	var front, self mean
	for _, ri := range byKind[kindRouter] {
		r := &spans[ri]
		if !load.has(r) || r.route != electRoute {
			continue
		}
		if ci, ok := clients[r.id]; ok {
			front.add(float64(spans[ci].end - spans[ci].start - (r.end - r.start)))
		}
		self.add(float64(r.end-r.start) - covered(spans, children[ri]))
	}
	var transport, hElect, hPer, hReg, wait mean
	for ni, ci := range callOf {
		s, c := &spans[ni], &spans[ci]
		switch {
		case load.has(s) && s.route == electRoute:
			transport.add(float64((c.end - c.start) - (s.end - s.start)))
			hElect.add(float64(s.end - s.start))
			if s.nkeys > 0 {
				hPer.add(float64(s.end-s.start) / float64(s.nkeys))
			}
		case reg.has(s) && s.route == routeRegister:
			hReg.add(float64(s.end - s.start))
		}
	}
	perNodeH := make([][]int, len(nodeNames))
	for _, ni := range byKind[kindNode] {
		if s := &spans[ni]; s.route == routeRegister && reg.has(s) {
			perNodeH[s.node] = append(perNodeH[s.node], ni)
		}
	}
	for _, bi := range byKind[kindBuild] {
		b := &spans[bi]
		if p := parentOf(perNodeH[b.node], b, func(p *span) bool { return p.key == b.key }); p >= 0 {
			wait.add(float64(b.start - spans[p].start))
		}
	}
	st.front, st.routerSelf, st.transport = front.value(), self.value(), transport.value()
	st.handlerElect, st.handlerPerElection, st.handlerRegister = hElect.value(), hPer.value(), hReg.value()
	st.admissionWait, st.requests = wait.value(), self.n
	return st
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for i, j := range idx {
		iv[i] = [2]int64{spans[j].start, spans[j].end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return float64(total + cur[1] - cur[0])
}

type mean struct {
	sum float64
	n   int
}

func (m *mean) add(x float64) { m.sum += x; m.n++ }

func (m *mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// write saves every span as one tab-separated line, for offline analysis.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\troute\tnode\tid\tkey\tnkeys\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n", kindNames[s.kind], routeNames[s.route], s.node, s.id, s.key, s.nkeys, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
