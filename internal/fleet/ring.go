// Package fleet turns a set of single-node election daemons into one
// logical service: a rendezvous-hash Ring decides which node owns each
// registry key, a Client speaks the server's HTTP API (JSON and binary
// wire encoding) to one node, a Fleet routes every registry operation to
// the owning node — splitting batch elections by owner and reassembling
// the responses in submission order — and a Router is the HTTP front door
// that exposes the same /v1/* surface over the whole fleet.
//
// Placement is pure function, not state: Owner(key) depends only on the
// ring's membership, so every router replica with the same node list
// routes identically, and nothing needs to be gossiped or persisted.
// Rendezvous hashing keeps placement minimal under churn — adding or
// removing one node moves only the keys that node gains or loses (about
// 1/n of the keyspace), never a reshuffle of everyone else's keys; the
// ring property tests pin this.
//
// Key migration ships compiled artifacts, not work: Fleet.Rebalance pulls
// a moving key's artifact from the old owner (GET /v1/artifact/{key}, one
// binary frame) and admits it on the new owner (POST /v1/admit/artifact),
// which loads it — compiling the phase table from the shipped lists —
// instead of reclassifying. Only when the old owner is unreachable (crash,
// partition) does the fleet fall back to re-registering the key from its
// configuration cache — a full rebuild on the new owner, the unavoidable
// cost of losing the only copy.
package fleet

import (
	"fmt"
	"sort"

	"anonradio/internal/fnv"
)

// Ring is an immutable rendezvous-hash placement over a set of node names.
// Every membership change produces a new Ring (With/Without), so routing
// code can swap rings atomically and in-flight decisions stay consistent.
type Ring struct {
	nodes  []string
	hashes []uint64 // fnv.String64 of each node, cached
}

// NewRing builds a ring over the given node names; duplicates and empty
// names are dropped, and order does not matter (placement is a pure
// function of the membership set).
func NewRing(nodes ...string) *Ring {
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	sort.Strings(r.nodes)
	r.hashes = make([]uint64, len(r.nodes))
	for i, n := range r.nodes {
		r.hashes[i] = fnv.String64(n)
	}
	return r
}

// Nodes returns the membership in sorted order; the slice is shared and
// must not be mutated.
func (r *Ring) Nodes() []string { return r.nodes }

// Len is the number of nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Contains reports whether node is a member.
func (r *Ring) Contains(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// With derives a ring with node added (a no-op copy if already present).
func (r *Ring) With(node string) *Ring {
	return NewRing(append(append([]string{}, r.nodes...), node)...)
}

// Without derives a ring with node removed.
func (r *Ring) Without(node string) *Ring {
	kept := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			kept = append(kept, n)
		}
	}
	return NewRing(kept...)
}

// Owner returns the node that owns key: the member with the highest
// rendezvous score, ties broken by node name so placement is total and
// deterministic. It panics on an empty ring — routing over zero nodes is
// a caller bug, not a runtime condition.
func (r *Ring) Owner(key string) string {
	if len(r.nodes) == 0 {
		panic(fmt.Sprintf("fleet: Owner(%q) on an empty ring", key))
	}
	kh := fnv.String64(key)
	best := 0
	bestScore := fnv.Mix64(kh, r.hashes[0])
	for i := 1; i < len(r.nodes); i++ {
		if s := fnv.Mix64(kh, r.hashes[i]); s > bestScore || (s == bestScore && r.nodes[i] < r.nodes[best]) {
			best, bestScore = i, s
		}
	}
	return r.nodes[best]
}
