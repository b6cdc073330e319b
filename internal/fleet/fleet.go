package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// Fleet routes registry operations across a ring of anonradiod nodes: every
// key lives on exactly one node (Ring.Owner), registrations and elections
// go there, batch elections are split per owner and reassembled in
// submission order, and membership changes migrate keys by shipping their
// compiled artifacts instead of recompiling them.
//
// The Fleet also keeps a configuration cache — the text form of every
// configuration it registered — which is the recovery source of truth when
// a node dies without a goodbye: DropNode re-registers the dead node's keys
// from the cache onto the surviving ring (a full rebuild, since the only
// compiled copy died with the node). The cache deliberately holds
// configuration text, not artifacts: text is tiny, and the live nodes hold
// the compiled state.
type Fleet struct {
	opts ClientOptions

	mu      sync.RWMutex
	ring    *Ring
	clients map[string]*Client
	configs map[string]string // key → configuration text
}

// New builds a fleet over the node base URLs ("http://host:port", one per
// anonradiod).
func New(nodes []string, opts ClientOptions) (*Fleet, error) {
	ring := NewRing(nodes...)
	if ring.Len() == 0 {
		return nil, fmt.Errorf("fleet: no nodes")
	}
	f := &Fleet{
		opts:    opts,
		ring:    ring,
		clients: make(map[string]*Client, ring.Len()),
		configs: make(map[string]string),
	}
	for _, n := range ring.Nodes() {
		f.clients[n] = NewClient(n, opts)
	}
	return f, nil
}

// Ring returns the current placement ring.
func (f *Fleet) Ring() *Ring {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ring
}

// Owner returns the node that currently owns key.
func (f *Fleet) Owner(key string) string { return f.Ring().Owner(key) }

// ClientFor returns the client of the node that currently owns key.
func (f *Fleet) ClientFor(key string) *Client {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.clients[f.ring.Owner(key)]
}

// client returns the (possibly cached) client for a node base URL.
func (f *Fleet) client(node string) *Client {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.clients[node]
	if c == nil {
		c = NewClient(node, f.opts)
		f.clients[node] = c
	}
	return c
}

// Keys returns the cached keys in sorted order.
func (f *Fleet) Keys() []string {
	f.mu.RLock()
	keys := make([]string, 0, len(f.configs))
	for k := range f.configs {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// noteConfig records a key's configuration text in the recovery cache.
func (f *Fleet) noteConfig(key, cfgText string) {
	f.mu.Lock()
	f.configs[key] = cfgText
	f.mu.Unlock()
}

// Admit admits a on the node that owns its key: the WAL-admit frame it
// arrived in, verbatim, when it came as one (POST /v1/admit/artifact), else
// a register request carrying its configuration text, artifact and async
// flag. The node parses the text. The text is cached on acceptance (sync
// success or async 202 — an async admission that later fails is simply
// re-registered at the next rebalance, which is idempotent).
func (f *Fleet) Admit(a service.Admission) error {
	c := f.ClientFor(a.Key)
	var err error
	if a.Frame != nil {
		_, err = c.AdmitArtifact(a.Frame)
	} else {
		_, err = c.register(a.Key, a.Config, a.Artifact, a.Async)
	}
	if err == nil {
		f.noteConfig(a.Key, a.Config)
	}
	return err
}

// AdmissionStatus polls the owning node for key's admission. When the node
// records none, or cannot be asked, State is AdmissionUnknown and Err holds
// the failed call (a node's 404 included), which a front door relays.
func (f *Fleet) AdmissionStatus(key string) service.AdmissionStatus {
	resp, err := f.ClientFor(key).AdmissionStatus(key)
	st := service.AdmissionStatus{Key: key, Err: err}
	if err != nil {
		return st
	}
	for s := service.AdmissionQueued; s <= service.AdmissionFailed; s++ {
		if s.String() == resp.State {
			st.State = s
		}
	}
	if resp.Error != "" {
		st.Err = errors.New(resp.Error)
	}
	return st
}

// Elect serves one election for key on its owning node.
func (f *Fleet) Elect(key string) (service.Outcome, error) {
	o, err := f.ClientFor(key).Elect(key)
	if err != nil {
		return service.Outcome{Key: key, Leader: -1, Err: err}, err
	}
	return outcome(o), nil
}

// outcome is a node's outcome as its registry served it: the one place a
// node's wire.Outcome becomes a service.Outcome.
func outcome(o wire.Outcome) service.Outcome {
	out := service.Outcome{Key: o.Key, Leader: o.Leader, Rounds: o.Rounds}
	if o.Error != "" {
		out.Err = errors.New(o.Error)
	}
	return out
}

// ElectBatch serves one election per key across the fleet, writing the
// outcome for keys[i] into slot i of the returned slice (outs is reused
// when it has capacity): the batch is split by owning node, the per-node
// sub-batches run concurrently, and the outcomes are reassembled in
// submission order, exactly the contract of a single node's
// /v1/elect/batch. A node-level failure (dead node, closed registry) lands
// in its keys' outcome slots rather than failing the whole batch, so the
// returned error is always nil.
func (f *Fleet) ElectBatch(keys []string, outs []service.Outcome) ([]service.Outcome, error) {
	if cap(outs) < len(keys) {
		outs = make([]service.Outcome, len(keys))
	} else {
		outs = outs[:len(keys)]
	}
	ring := f.Ring()
	type group struct {
		keys    []string
		indices []int
	}
	groups := make(map[string]*group)
	for i, key := range keys {
		owner := ring.Owner(key)
		g := groups[owner]
		if g == nil {
			g = &group{}
			groups[owner] = g
		}
		g.keys = append(g.keys, key)
		g.indices = append(g.indices, i)
	}
	var wg sync.WaitGroup
	for node, g := range groups {
		wg.Add(1)
		go func(node string, g *group) { // the groups' outcome slots are disjoint
			defer wg.Done()
			sub, err := f.client(node).ElectBatch(g.keys)
			if err == nil && len(sub.Outcomes) != len(g.keys) {
				err = fmt.Errorf("fleet: the owning node answered %d outcomes for %d keys", len(sub.Outcomes), len(g.keys))
			}
			for j, idx := range g.indices {
				if err != nil {
					outs[idx] = service.Outcome{Key: keys[idx], Leader: -1, Err: err}
				} else {
					outs[idx] = outcome(sub.Outcomes[j])
				}
				outs[idx].Index = idx
			}
		}(node, g)
	}
	wg.Wait()
	return outs, nil
}

// Evict removes key from its owning node and from the recovery cache. Like
// Registry.Evict, it reports false, not an error, when the node holds no
// such key: when it answers 404, whatever its message (an earlier release
// words it without the unknown-key sentinel's text).
func (f *Fleet) Evict(key string) (bool, error) {
	err := f.ClientFor(key).Evict(key)
	var ae *APIError
	absent := errors.As(err, &ae) && ae.Status == http.StatusNotFound
	if err == nil || absent {
		f.mu.Lock()
		delete(f.configs, key)
		f.mu.Unlock()
	}
	if absent {
		return false, nil
	}
	return err == nil, err
}

// ExportArtifact fetches key's compiled artifact from its owning node, as
// one WAL-admit frame.
func (f *Fleet) ExportArtifact(key string) ([]byte, error) {
	return f.ClientFor(key).FetchArtifact(key)
}

// NodeStats is one node's slice of a fleet stats aggregation.
type NodeStats struct {
	// Node is the node's base URL.
	Node string `json:"node"`
	// Error carries the probe failure when the node could not be asked.
	Error string `json:"error,omitempty"`
	// Stats is the node's own stats response (nil on error).
	Stats *server.StatsResponse `json:"stats,omitempty"`
}

// StatsResponse is the fleet-aggregated form of GET /v1/stats: every
// node's counters plus a fleet-wide totals row.
type StatsResponse struct {
	// Nodes holds one entry per ring member, in ring order.
	Nodes []NodeStats `json:"nodes"`
	// Totals folds every reachable node's totals row into one (Shard=-1).
	Totals service.ShardStats `json:"totals"`
	// CachedKeys is the size of the fleet's configuration cache.
	CachedKeys int `json:"cached_keys"`
}

// Stats asks every ring member for its stats concurrently and aggregates.
func (f *Fleet) Stats() StatsResponse {
	ring := f.Ring()
	nodes := ring.Nodes()
	resp := StatsResponse{Nodes: make([]NodeStats, len(nodes))}
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			st, err := f.client(node).Stats()
			ns := NodeStats{Node: node}
			if err != nil {
				ns.Error = err.Error()
			} else {
				ns.Stats = &st
			}
			resp.Nodes[i] = ns
		}(i, node)
	}
	wg.Wait()
	var totals []service.ShardStats
	for _, ns := range resp.Nodes {
		if ns.Stats != nil {
			totals = append(totals, ns.Stats.Totals)
		}
	}
	resp.Totals = service.Totals(totals)
	f.mu.RLock()
	resp.CachedKeys = len(f.configs)
	f.mu.RUnlock()
	return resp
}

// KeyMove is one key's outcome in a rebalance.
type KeyMove struct {
	// Key is the migrated key.
	Key string `json:"key"`
	// From and To are the old and new owning nodes.
	From string `json:"from"`
	To   string `json:"to"`
	// Shipped is true when the compiled artifact moved and To loaded it (no
	// classifier run on To); false means the key was re-registered from the
	// configuration cache (full rebuild — the source was unreachable or
	// refused the export).
	Shipped bool `json:"shipped"`
	// Error carries the failure when the key could not be placed at all.
	Error string `json:"error,omitempty"`
}

// RebalanceReport summarizes one membership change.
type RebalanceReport struct {
	// Moves holds one entry per key whose owner changed, sorted by key.
	Moves []KeyMove `json:"moves"`
	// Shipped, Rebuilt and Failed partition Moves.
	Shipped int `json:"shipped"`
	Rebuilt int `json:"rebuilt"`
	Failed  int `json:"failed"`
}

// AddNode grows the ring: keys the new node now owns are shipped onto it
// (artifact fast path) while their old owners keep serving, then the ring
// swaps, then the old copies are evicted. Elections never miss: before the
// swap they route to the old owner (which still holds the key), after it
// to the new owner (which already does).
func (f *Fleet) AddNode(node string) (*RebalanceReport, error) {
	f.mu.RLock()
	next := f.ring.With(node)
	f.mu.RUnlock()
	return f.Rebalance(next, "")
}

// RemoveNode drains a live node: its keys are shipped to their new owners
// first, the ring swaps, and the source copies are evicted. The node is
// still expected to answer during the drain; for a dead node use DropNode.
func (f *Fleet) RemoveNode(node string) (*RebalanceReport, error) {
	f.mu.RLock()
	next := f.ring.Without(node)
	f.mu.RUnlock()
	if next.Len() == 0 {
		return nil, fmt.Errorf("fleet: removing %s would empty the ring", node)
	}
	return f.Rebalance(next, "")
}

// DropNode handles node loss: every key the dead node owned is
// re-registered from the configuration cache onto its new owner — a full
// rebuild, since the only compiled copy died with the node — and then the
// ring swaps. Until the swap, the lost keys still route to the dead node
// and fail with a transport error; they never reach a survivor that does
// not hold them yet, which would answer a permanent-looking
// service.ErrUnknownKey for a key that exists. Keys on surviving nodes are
// untouched and keep serving identical outcomes throughout.
func (f *Fleet) DropNode(node string) (*RebalanceReport, error) {
	f.mu.RLock()
	next := f.ring.Without(node)
	f.mu.RUnlock()
	if next.Len() == 0 {
		return nil, fmt.Errorf("fleet: dropping %s would empty the ring", node)
	}
	return f.Rebalance(next, node)
}

// Rebalance migrates the fleet onto the next ring. lost optionally names a
// node that is known dead: keys it owned skip the artifact fast path and
// rebuild from the configuration cache.
//
// The order is ship or rebuild → swap → evict: a moving key is admitted on
// its new owner while routing still reaches the old one, the ring then
// flips routing over, and only then is a live source's copy evicted — the
// node a key routes to holds it, or (a lost source) is the dead node,
// which fails the request with a transport error rather than an unknown
// key. A key that fails both the ship and the rebuild is reported in the
// Moves list and left where it was (for a live source that means still
// serving; for a lost one, gone until re-registered).
func (f *Fleet) Rebalance(next *Ring, lost string) (*RebalanceReport, error) {
	if next.Len() == 0 {
		return nil, fmt.Errorf("fleet: rebalance onto an empty ring")
	}
	f.mu.Lock()
	prev := f.ring
	configs := make(map[string]string, len(f.configs))
	for k, v := range f.configs {
		configs[k] = v
	}
	f.mu.Unlock()

	type move struct{ key, from, to, cfg string }
	var moves []move
	for key, cfg := range configs {
		from, to := prev.Owner(key), next.Owner(key)
		if from != to {
			moves = append(moves, move{key, from, to, cfg})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].key < moves[j].key })

	rep := &RebalanceReport{}
	evictable := make([]move, 0, len(moves))
	for _, m := range moves {
		km := KeyMove{Key: m.key, From: m.from, To: m.to}
		var err error
		if m.from != lost {
			var frame []byte
			if frame, err = f.client(m.from).FetchArtifact(m.key); err == nil {
				if _, err = f.client(m.to).AdmitArtifact(frame); err == nil {
					km.Shipped = true
				}
			}
		}
		if !km.Shipped {
			// Source dead or export failed: rebuild from the config cache.
			if _, rerr := f.client(m.to).Register(m.key, m.cfg); rerr == nil {
				err = nil
			} else if err == nil {
				err = rerr
			}
		}
		switch {
		case err != nil:
			km.Error = err.Error()
			rep.Failed++
		case km.Shipped:
			rep.Shipped++
			evictable = append(evictable, m)
		default:
			rep.Rebuilt++
		}
		rep.Moves = append(rep.Moves, km)
	}

	f.mu.Lock()
	f.ring = next
	f.mu.Unlock()
	// Evict the source copies now that routing no longer reaches them;
	// best-effort — a leftover copy wastes memory, not correctness.
	for _, m := range evictable {
		_ = f.client(m.from).Evict(m.key)
	}
	return rep, nil
}
