package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"anonradio/internal/election"
	"anonradio/internal/server"
	"anonradio/internal/service"
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

// NoteConfig records a key's configuration text in the recovery cache
// without registering it (used when an admission reached a node through a
// side channel, e.g. a shipped artifact).
func (f *Fleet) NoteConfig(key, cfgText string) {
	f.mu.Lock()
	f.configs[key] = cfgText
	f.mu.Unlock()
}

// Register admits cfgText under key on the owning node and records the
// configuration in the recovery cache.
func (f *Fleet) Register(key, cfgText string) (server.RegisterResponse, error) {
	return f.RegisterFull(key, cfgText, nil, false)
}

// RegisterFull is Register with the server's full option surface: an
// optional pre-compiled artifact and the async admission flow. The
// configuration is cached on acceptance (sync success or async 202 — an
// async admission that later fails is simply re-registered at the next
// rebalance, which is idempotent).
func (f *Fleet) RegisterFull(key, cfgText string, artifact *election.Compiled, async bool) (server.RegisterResponse, error) {
	c := f.ClientFor(key)
	var resp server.RegisterResponse
	var err error
	switch {
	case async:
		resp, err = c.RegisterAsync(key, cfgText)
	case artifact != nil:
		resp, err = c.RegisterArtifact(key, cfgText, artifact)
	default:
		resp, err = c.Register(key, cfgText)
	}
	if err == nil {
		f.NoteConfig(key, cfgText)
	}
	return resp, err
}

// AdmissionStatus polls the owning node for an async admission's state.
func (f *Fleet) AdmissionStatus(key string) (server.AdmissionStatusResponse, error) {
	return f.ClientFor(key).AdmissionStatus(key)
}

// Elect serves one election for key on its owning node.
func (f *Fleet) Elect(key string) (server.Outcome, error) {
	return f.ClientFor(key).Elect(key)
}

// ElectBatch serves one election per key across the fleet: the batch is
// split by owning node, the per-node sub-batches run concurrently, and the
// outcomes are reassembled so outcome i always corresponds to keys[i] —
// exactly the contract of a single node's /v1/elect/batch. A node-level
// failure (dead node, closed registry) lands in its keys' outcome slots
// rather than failing the whole batch, mirroring how a single server
// reports per-key failures.
func (f *Fleet) ElectBatch(keys []string) (server.BatchResponse, error) {
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
	resp := server.BatchResponse{Outcomes: make([]server.Outcome, len(keys))}
	var wg sync.WaitGroup
	var mu sync.Mutex // guards resp.Failures (outcome slots are disjoint)
	for node, g := range groups {
		wg.Add(1)
		go func(node string, g *group) {
			defer wg.Done()
			sub, err := f.client(node).ElectBatch(g.keys)
			if err != nil || len(sub.Outcomes) != len(g.keys) {
				if err == nil {
					err = fmt.Errorf("fleet: node %s answered %d outcomes for %d keys", node, len(sub.Outcomes), len(g.keys))
				}
				mu.Lock()
				for _, idx := range g.indices {
					resp.Outcomes[idx] = server.Outcome{Key: keys[idx], Leader: -1, Error: err.Error()}
					resp.Failures++
				}
				mu.Unlock()
				return
			}
			failures := 0
			for j, idx := range g.indices {
				resp.Outcomes[idx] = sub.Outcomes[j]
				if sub.Outcomes[j].Error != "" {
					failures++
				}
			}
			if failures > 0 {
				mu.Lock()
				resp.Failures += failures
				mu.Unlock()
			}
		}(node, g)
	}
	wg.Wait()
	return resp, nil
}

// Evict removes key from its owning node and from the recovery cache.
func (f *Fleet) Evict(key string) error {
	err := f.ClientFor(key).Evict(key)
	if err == nil || errors.Is(err, service.ErrUnknownKey) {
		f.mu.Lock()
		delete(f.configs, key)
		f.mu.Unlock()
	}
	return err
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
	Totals server.ShardStats `json:"totals"`
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
	resp.Totals.Shard = -1
	for _, ns := range resp.Nodes {
		if ns.Stats == nil {
			continue
		}
		t := ns.Stats.Totals
		resp.Totals.Configs += t.Configs
		resp.Totals.Builds += t.Builds
		resp.Totals.Elections += t.Elections
		resp.Totals.Failures += t.Failures
		resp.Totals.Rounds += t.Rounds
		resp.Totals.Stolen += t.Stolen
		resp.Totals.StolenFrom += t.StolenFrom
		resp.Totals.Queued += t.Queued
	}
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
