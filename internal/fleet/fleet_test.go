package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// newTestNodes boots n single-node daemons (registry + HTTP server) and
// returns their base URLs plus handles for poking node internals and
// killing nodes mid-test.
func newTestNodes(t *testing.T, n int) ([]string, map[string]*service.Registry, map[string]*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	regs := make(map[string]*service.Registry, n)
	servers := make(map[string]*httptest.Server, n)
	for i := 0; i < n; i++ {
		reg := service.New(service.Options{Shards: 2})
		t.Cleanup(reg.Close)
		ts := httptest.NewServer(server.New(reg, server.Options{}).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		regs[ts.URL] = reg
		servers[ts.URL] = ts
	}
	return urls, regs, servers
}

// newNamedNodes is newTestNodes with the nodes named http://node-a,
// http://node-b, ..., as fleetbench names its nodes, and the client options
// that route those names to the listeners. Placement hashes the node URLs,
// so with httptest's ephemeral ports a test that depends on where keys
// land would pass or fail with the ports it drew; with fixed names every
// run places every key alike. The registries are keyed by name.
func newNamedNodes(t *testing.T, n int) ([]string, map[string]*service.Registry, ClientOptions) {
	t.Helper()
	urls, regs, _ := newTestNodes(t, n)
	rt := &namedTransport{hosts: make(map[string]string, n), next: http.DefaultTransport.(*http.Transport).Clone()}
	t.Cleanup(rt.next.CloseIdleConnections)
	names := make([]string, n)
	byName := make(map[string]*service.Registry, n)
	for i, u := range urls {
		host := fmt.Sprintf("node-%c", 'a'+i)
		names[i] = "http://" + host
		rt.hosts[host] = strings.TrimPrefix(u, "http://")
		byName[names[i]] = regs[u]
	}
	return names, byName, ClientOptions{HTTP: &http.Client{Transport: rt}}
}

// namedTransport sends requests for a node name to its listener's address.
type namedTransport struct {
	hosts map[string]string
	next  *http.Transport
}

func (n *namedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if addr, ok := n.hosts[r.URL.Host]; ok {
		r = r.Clone(r.Context())
		r.URL.Host = addr
	}
	return n.next.RoundTrip(r)
}

// cfgFor deals out a varied mix of configuration families so keys have
// genuinely different election outcomes.
func cfgFor(i int) *config.Config {
	switch i % 4 {
	case 0:
		return config.StaggeredClique(5 + i%7)
	case 1:
		return config.StaggeredPath(6+i%5, 2)
	case 2:
		return config.LineFamilyG(2 + i%3)
	default:
		return config.EarlyCenterStar(5+i%4, 2)
	}
}

func fleetKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fk-%03d", i)
	}
	return keys
}

// failures counts the outcomes that carry an error.
func failures(outs []service.Outcome) int {
	n := 0
	for _, o := range outs {
		if o.Err != nil {
			n++
		}
	}
	return n
}

// registerFleet admits keys through the fleet and returns them.
func registerFleet(t *testing.T, f *Fleet, n int) []string {
	t.Helper()
	keys := fleetKeys(n)
	for i, key := range keys {
		if err := f.Admit(service.Admission{Key: key, Config: cfgFor(i).Marshal()}); err != nil {
			t.Fatalf("register %s: %v", key, err)
		}
	}
	return keys
}

// TestFleetBitIdenticalToSingleNode is the fleet acceptance criterion: the
// same configurations admitted to a three-node fleet and to one local
// registry produce identical election outcomes, key by key, both for single
// elections and through the split-and-reassemble batch path.
func TestFleetBitIdenticalToSingleNode(t *testing.T) {
	urls, _, opts := newNamedNodes(t, 3)
	f, err := New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := registerFleet(t, f, 12)

	single := service.New(service.Options{Shards: 1})
	t.Cleanup(single.Close)
	for i, key := range keys {
		if err := single.Register(key, cfgFor(i)); err != nil {
			t.Fatalf("single register %s: %v", key, err)
		}
	}

	owners := map[string]bool{}
	for _, key := range keys {
		owners[f.Owner(key)] = true
		want, err := single.Elect(key)
		if err != nil {
			t.Fatalf("single elect %s: %v", key, err)
		}
		got, err := f.Elect(key)
		if err != nil {
			t.Fatalf("fleet elect %s: %v", key, err)
		}
		if got.Leader != want.Leader || got.Rounds != want.Rounds {
			t.Fatalf("%s: fleet outcome (%d, %d) != single-node outcome (%d, %d)",
				key, got.Leader, got.Rounds, want.Leader, want.Rounds)
		}
	}
	if len(owners) < 2 {
		t.Fatalf("12 keys all landed on one node of three: %v", owners)
	}

	batch, err := f.ElectBatch(keys, nil)
	if err != nil {
		t.Fatalf("fleet batch: %v", err)
	}
	if len(batch) != len(keys) || failures(batch) != 0 {
		t.Fatalf("batch: %d outcomes, %d failures", len(batch), failures(batch))
	}
	for i, key := range keys {
		out := batch[i]
		if out.Key != key {
			t.Fatalf("batch slot %d holds %q, want %q", i, out.Key, key)
		}
		want, _ := single.Elect(key)
		if out.Leader != want.Leader || out.Rounds != want.Rounds {
			t.Fatalf("batch %s: (%d, %d) != single-node (%d, %d)",
				key, out.Leader, out.Rounds, want.Leader, want.Rounds)
		}
	}
}

// TestFleetElectBatchReassembly is the ordering property for the batch
// splitter: keys interleaved across owners, duplicated, and even unknown
// come back in exactly the submitted order, with per-key failures confined
// to their own slots.
func TestFleetElectBatchReassembly(t *testing.T) {
	urls, _, _ := newTestNodes(t, 3)
	f, err := New(urls, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := registerFleet(t, f, 9)

	// Submission order deliberately interleaves owners, repeats keys, and
	// plants an unregistered key in the middle.
	submit := []string{
		keys[8], keys[0], keys[4], keys[0], "ghost-key",
		keys[7], keys[4], keys[1], keys[8], keys[2],
	}
	batch, err := f.ElectBatch(submit, nil)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(batch) != len(submit) {
		t.Fatalf("batch returned %d outcomes for %d keys", len(batch), len(submit))
	}
	if failures(batch) != 1 {
		t.Fatalf("batch failures = %d, want 1 (the ghost key)", failures(batch))
	}
	for i, key := range submit {
		out := batch[i]
		if out.Key != key {
			t.Fatalf("slot %d holds %q, want %q — reassembly broke submission order", i, out.Key, key)
		}
		if key == "ghost-key" {
			if out.Err == nil || out.Elected() {
				t.Fatalf("ghost slot lacks its failure: %+v", out)
			}
			continue
		}
		if out.Err != nil || !out.Elected() {
			t.Fatalf("%s failed in batch: %+v", key, out)
		}
		// Duplicates and singletons alike must match a direct election.
		direct, err := f.Elect(key)
		if err != nil {
			t.Fatalf("direct elect %s: %v", key, err)
		}
		if out.Leader != direct.Leader || out.Rounds != direct.Rounds {
			t.Fatalf("%s: batch (%d, %d) != direct (%d, %d)",
				key, out.Leader, out.Rounds, direct.Leader, direct.Rounds)
		}
	}
}

// TestFleetAddNodeShipsArtifacts is the migration acceptance criterion:
// growing the ring moves every rehomed key by shipping its compiled
// artifact — the receiver's artifact-load counter equals the move count
// (no classifier run), sources are evicted, and every key's election
// outcome survives the move bit-identically.
func TestFleetAddNodeShipsArtifacts(t *testing.T) {
	urls, regs, opts := newNamedNodes(t, 3)
	f, err := New(urls[:2], opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := registerFleet(t, f, 30)

	before := make(map[string]service.Outcome, len(keys))
	for _, key := range keys {
		out, err := f.Elect(key)
		if err != nil {
			t.Fatalf("pre-move elect %s: %v", key, err)
		}
		before[key] = out
	}

	report, err := f.AddNode(urls[2])
	if err != nil {
		t.Fatalf("add node: %v", err)
	}
	if len(report.Moves) == 0 {
		t.Fatal("adding a third node moved no keys out of 30")
	}
	if report.Failed != 0 || report.Rebuilt != 0 || report.Shipped != len(report.Moves) {
		t.Fatalf("moves not all shipped: %+v", report)
	}
	for _, mv := range report.Moves {
		if mv.To != urls[2] || !mv.Shipped || mv.Error != "" {
			t.Fatalf("move %+v: only the new node may gain keys, via shipping", mv)
		}
	}

	// No classifier run on the receiver: every admission there was an
	// artifact load of a shipped artifact.
	if got := regs[urls[2]].AdmissionStats().ArtifactLoads; got != int64(len(report.Moves)) {
		t.Fatalf("receiver ArtifactLoads = %d, want %d (one per move)", got, len(report.Moves))
	}
	// Sources evicted: each key lives on exactly one node.
	total := 0
	for _, reg := range regs {
		total += reg.Len()
	}
	if total != len(keys) {
		t.Fatalf("%d configurations across the fleet after rebalance, want %d", total, len(keys))
	}

	for _, key := range keys {
		out, err := f.Elect(key)
		if err != nil {
			t.Fatalf("post-move elect %s: %v", key, err)
		}
		if want := before[key]; out.Leader != want.Leader || out.Rounds != want.Rounds {
			t.Fatalf("%s: outcome changed across migration: (%d, %d) -> (%d, %d)",
				key, want.Leader, want.Rounds, out.Leader, out.Rounds)
		}
	}
}

// TestFleetDropNodeRecovers pins the loss path: when a node dies without a
// goodbye, DropNode re-registers its keys from the configuration cache onto
// the survivors (full rebuilds — the compiled copies died with the node)
// and every key keeps serving the same outcomes.
func TestFleetDropNodeRecovers(t *testing.T) {
	urls, _, servers := newTestNodes(t, 3)
	f, err := New(urls, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := registerFleet(t, f, 30)

	before := make(map[string]service.Outcome, len(keys))
	ownedByLost := 0
	lost := f.Owner(keys[0])
	for _, key := range keys {
		out, err := f.Elect(key)
		if err != nil {
			t.Fatalf("pre-loss elect %s: %v", key, err)
		}
		before[key] = out
		if f.Owner(key) == lost {
			ownedByLost++
		}
	}

	servers[lost].Close() // kill the node: no drain, no goodbye

	report, err := f.DropNode(lost)
	if err != nil {
		t.Fatalf("drop node: %v", err)
	}
	if len(report.Moves) != ownedByLost {
		t.Fatalf("dropped node owned %d keys but %d moved", ownedByLost, len(report.Moves))
	}
	if report.Failed != 0 || report.Shipped != 0 || report.Rebuilt != len(report.Moves) {
		t.Fatalf("loss recovery should rebuild everything from the cache: %+v", report)
	}
	if f.Ring().Contains(lost) {
		t.Fatal("lost node still in the ring")
	}

	for _, key := range keys {
		out, err := f.Elect(key)
		if err != nil {
			t.Fatalf("post-loss elect %s: %v", key, err)
		}
		if want := before[key]; out.Leader != want.Leader || out.Rounds != want.Rounds {
			t.Fatalf("%s: outcome changed across node loss: (%d, %d) -> (%d, %d)",
				key, want.Leader, want.Rounds, out.Leader, out.Rounds)
		}
	}
}

// TestFleetRemoveNodeShipsArtifacts pins the live drain: RemoveNode ships
// every key of the drained node to its new owner as a compiled artifact (no
// classifier run there), evicts the drained copies and drops the node from
// the ring, and every key keeps serving its outcome. Removing the last node
// is refused and leaves the ring as it was.
func TestFleetRemoveNodeShipsArtifacts(t *testing.T) {
	urls, regs, opts := newNamedNodes(t, 3)
	f, err := New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := registerFleet(t, f, 30)

	before := make(map[string]service.Outcome, len(keys))
	owned := make(map[string]int, len(urls))
	for _, key := range keys {
		out, err := f.Elect(key)
		if err != nil {
			t.Fatalf("pre-drain elect %s: %v", key, err)
		}
		before[key] = out
		owned[f.Owner(key)]++
	}
	drained := urls[0]
	for _, u := range urls[1:] {
		if owned[u] > owned[drained] {
			drained = u
		}
	}
	receiverLoads := func() (n int64) {
		for _, u := range urls {
			if u != drained {
				n += regs[u].AdmissionStats().ArtifactLoads
			}
		}
		return n
	}
	loads := receiverLoads()

	report, err := f.RemoveNode(drained)
	if err != nil {
		t.Fatalf("remove node: %v", err)
	}
	if n := owned[drained]; len(report.Moves) != n || report.Shipped != n || report.Rebuilt != 0 || report.Failed != 0 {
		t.Fatalf("draining %s, which owned %d keys: %+v", drained, n, report)
	}
	for _, mv := range report.Moves {
		if mv.From != drained || !mv.Shipped || mv.Error != "" {
			t.Fatalf("move %+v: only the drained node may lose keys, via shipping", mv)
		}
	}
	if got := receiverLoads() - loads; got != int64(owned[drained]) {
		t.Fatalf("receivers' ArtifactLoads rose by %d, want %d (one per shipped key)", got, owned[drained])
	}
	if n := regs[drained].Len(); n != 0 {
		t.Fatalf("drained node still holds %d keys", n)
	}
	if f.Ring().Contains(drained) {
		t.Fatal("drained node still in the ring")
	}

	for _, key := range keys {
		out, err := f.Elect(key)
		if err != nil {
			t.Fatalf("post-drain elect %s: %v", key, err)
		}
		if want := before[key]; out.Leader != want.Leader || out.Rounds != want.Rounds {
			t.Fatalf("%s: outcome changed across the drain: (%d, %d) -> (%d, %d)",
				key, want.Leader, want.Rounds, out.Leader, out.Rounds)
		}
	}

	last, err := New(urls[:1], opts)
	if err != nil {
		t.Fatal(err)
	}
	ring := last.Ring()
	if _, err := last.RemoveNode(urls[0]); err == nil {
		t.Fatal("removing the last node succeeded")
	}
	if last.Ring() != ring || !slices.Equal(ring.Nodes(), urls[:1]) {
		t.Fatalf("a refused removal changed the ring to %v", last.Ring().Nodes())
	}
}

// registerGate is an http.RoundTripper that, once armed, holds every
// POST /v1/register until release is closed; blocked is closed when the
// first one is held.
type registerGate struct {
	armed   atomic.Bool
	once    sync.Once
	blocked chan struct{}
	release chan struct{}
}

func (g *registerGate) RoundTrip(r *http.Request) (*http.Response, error) {
	if g.armed.Load() && r.Method == http.MethodPost && r.URL.Path == "/v1/register" {
		g.once.Do(func() { close(g.blocked) })
		<-g.release
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestDropNodeRebuildsBeforeSwap holds the survivors' re-registrations of
// a lost node's keys mid-DropNode: an elect of a lost key must not answer
// ErrUnknownKey meanwhile (the key exists; its rebuild has not landed), and
// once the rebuild is released every key elects its pre-loss outcome.
func TestDropNodeRebuildsBeforeSwap(t *testing.T) {
	urls, _, servers := newTestNodes(t, 3)
	gate := &registerGate{blocked: make(chan struct{}), release: make(chan struct{})}
	f, err := New(urls, ClientOptions{HTTP: &http.Client{Transport: gate}})
	if err != nil {
		t.Fatal(err)
	}
	keys := registerFleet(t, f, 12)
	before := make(map[string]service.Outcome, len(keys))
	for _, key := range keys {
		if before[key], err = f.Elect(key); err != nil {
			t.Fatalf("pre-loss elect %s: %v", key, err)
		}
	}

	lost := f.Owner(keys[0])
	servers[lost].Close()
	release := sync.OnceFunc(func() { close(gate.release) })
	t.Cleanup(release) // a failed check must not leave DropNode parked
	gate.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := f.DropNode(lost)
		done <- err
	}()
	<-gate.blocked

	if _, err := f.Elect(keys[0]); err == nil || errors.Is(err, service.ErrUnknownKey) {
		t.Fatalf("elect of a lost key during its rebuild: %v, want a transport error", err)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("drop node: %v", err)
	}
	for _, key := range keys {
		out, err := f.Elect(key)
		if err != nil {
			t.Fatalf("post-loss elect %s: %v", key, err)
		}
		if want := before[key]; out.Leader != want.Leader || out.Rounds != want.Rounds {
			t.Fatalf("%s: outcome changed across node loss: (%d, %d) -> (%d, %d)",
				key, want.Leader, want.Rounds, out.Leader, out.Rounds)
		}
	}
}

// TestEvictOnClosedNodeKeepsCache pins that a node answering an evict with
// 503 — its registry closed, the key still in its journal — leaves the key
// in the router's recovery cache: dropping the node then rebuilds the key
// on a survivor, where it elects as before.
func TestEvictOnClosedNodeKeepsCache(t *testing.T) {
	urls, regs, _ := newTestNodes(t, 3)
	f, err := New(urls, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := registerFleet(t, f, 12)[0]
	before, err := f.Elect(key)
	if err != nil {
		t.Fatal(err)
	}
	owner := f.Owner(key)
	regs[owner].Close()

	_, err = f.Evict(key)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || !errors.Is(err, service.ErrClosed) {
		t.Fatalf("evict on a closed node: %v, want a 503 ErrClosed", err)
	}
	if !slices.Contains(f.Keys(), key) {
		t.Fatalf("a 503 evict dropped %s from the recovery cache", key)
	}
	if _, err := f.DropNode(owner); err != nil {
		t.Fatalf("drop node: %v", err)
	}
	out, err := f.Elect(key)
	if err != nil {
		t.Fatalf("elect after the rebuild: %v", err)
	}
	if out.Leader != before.Leader || out.Rounds != before.Rounds {
		t.Fatalf("%s: outcome changed across the rebuild: (%d, %d) -> (%d, %d)", key, before.Leader, before.Rounds, out.Leader, out.Rounds)
	}
}

// TestEvictEarlierReleaseNotFound evicts a key from a node that words its
// evict 404 as an earlier release did, without the unknown-key sentinel's
// text. The key is absent all the same: Evict reports (false, nil) and
// drops it from the recovery cache, so no later rebalance re-registers a
// key the client evicted.
func TestEvictEarlierReleaseNotFound(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusNotFound, wire.ErrorMessage{Error: `no configuration registered under "gone"`})
	}))
	t.Cleanup(node.Close)
	f, err := New([]string{node.URL}, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f.noteConfig("gone", config.StaggeredClique(4).Marshal())
	if evicted, err := f.Evict("gone"); evicted || err != nil {
		t.Fatalf("evict answered by an earlier release's 404: (%v, %v), want (false, nil)", evicted, err)
	}
	if slices.Contains(f.Keys(), "gone") {
		t.Fatal("the evicted key stayed in the recovery cache")
	}
}

// TestAPIErrorUnwraps422Causes registers four configurations a node
// answers 422 for and pins that the client's error unwraps to exactly the
// sentinel of each cause: an infeasible configuration
// (election.ErrInfeasible), tags {0, 10⁶}, whose round bound passes the
// round limit (canonical.ErrRoundOverflow), and two invalid artifacts
// (election.ErrInvalidArtifact): one with its round bound edited, sent as a
// frame, and an earlier release's with its phase table edited, sent as
// JSON, the one encoding that carries the table. A 404 still unwraps to
// service.ErrUnknownKey.
func TestAPIErrorUnwraps422Causes(t *testing.T) {
	urls, _, _ := newTestNodes(t, 1)
	cfg := config.StaggeredClique(5)
	d, err := election.BuildDedicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tampered := d.Compile()
	tampered.RoundBound = 3
	eraText, era := jsonEraArtifact(t)
	era.PhaseTable.Plans[0].Block++
	c := NewClient(urls[0], ClientOptions{})
	sentinels := []error{election.ErrInfeasible, canonical.ErrRoundOverflow, election.ErrInvalidArtifact}
	for _, tc := range []struct {
		name     string
		register func() error
		want     error
	}{
		{"infeasible", func() error {
			_, err := c.Register("infeasible", config.SymmetricPair().Marshal())
			return err
		}, election.ErrInfeasible},
		{"tags {0, 10^6}", func() error {
			_, err := c.Register("huge", "nodes 2\ntag 0 0\ntag 1 1000000\nedge 0 1\n")
			return err
		}, canonical.ErrRoundOverflow},
		{"tampered artifact", func() error {
			_, err := c.register("tampered", cfg.Marshal(), tampered, false)
			return err
		}, election.ErrInvalidArtifact},
		{"edited phase table", func() error {
			_, err := c.register("edited-table", eraText, era, false)
			return err
		}, election.ErrInvalidArtifact},
	} {
		err := tc.register()
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: %v, want a 422", tc.name, err)
		}
		for _, s := range sentinels {
			if errors.Is(err, s) != (s == tc.want) {
				t.Fatalf("%s: errors.Is(err, %q) = %v; err %v", tc.name, s, !(s == tc.want), err)
			}
		}
	}
	if _, err := c.Elect("absent"); !errors.Is(err, service.ErrUnknownKey) {
		t.Fatalf("elect of an unknown key: %v, want ErrUnknownKey", err)
	}
}

// jsonEraArtifact reads the first entry of the JSON-era checkpoint: the
// configuration text and an artifact an earlier release wrote, its phase
// table embedded.
func jsonEraArtifact(t *testing.T) (string, *election.Compiled) {
	t.Helper()
	dir := filepath.Join("..", "service", "testdata", "json-era", "checkpoint")
	text, err := os.ReadFile(filepath.Join(dir, "0000.config.txt"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "0000.artifact.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := election.UnmarshalCompiled(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.PhaseTable == nil {
		t.Fatal("the JSON-era artifact carries no phase table")
	}
	return string(text), c
}
