// Package fleet shards the Rockhopper backend across N nodes and keeps
// every shard survivable. Three layers compose:
//
//   - Ring: a deterministic consistent-hash ring with virtual nodes.
//     Signature ownership is a pure function of (node set, seed), so every
//     node and every client computes identical placement with no
//     coordination, and adding a member moves only ~K/N of the keys.
//
//   - Topology: the ring plus liveness. A dead node's keys are NOT
//     re-hashed — they route to the node's first live follower in the
//     cyclic node-ID order, because that follower holds the replicated
//     data. Membership is fixed when the fleet is constructed, so placement
//     never moves.
//
//   - Replicator/Node (replicator.go, node.go): WAL log-shipping from each
//     shard owner to its followers, gap detection with snapshot catch-up,
//     and replay-on-promote failover.
//
// The ring hash is a seeded FNV-1a: stable across processes, runs, and
// architectures — placement determinism is load-bearing (clients route by
// it) and property-tested in ring_test.go.
package fleet

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per physical node. 128 points
// per node keeps the max/mean load ratio within ~1.3 at fleet sizes the
// backend targets while membership changes stay cheap to recompute.
const DefaultVnodes = 128

// ringPoint is one virtual node on the circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a deterministic consistent-hash ring. The zero value is not
// usable; construct with NewRing. Ring itself is not safe for concurrent
// mutation — Topology provides the synchronized view.
type Ring struct {
	vnodes int
	seed   uint64
	points []ringPoint // sorted by (hash, node)
	nodes  []string    // sorted member IDs
}

// NewRing returns an empty ring placing vnodes virtual nodes per member
// (DefaultVnodes when vnodes <= 0) with placement derived from seed.
func NewRing(vnodes int, seed uint64) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, seed: seed}
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashBytes folds b into h with FNV-1a.
func hashBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// mix64 is a 64-bit avalanche finalizer (the MurmurHash3 fmix64 constants).
// Raw FNV-1a over short strings diffuses the trailing bytes into the high
// bits too slowly, which clumps ring points and skews placement; the
// finalizer spreads every input bit across the whole word.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// keyHash hashes a routing key under the ring's seed.
func (r *Ring) keyHash(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h ^= (r.seed >> (8 * i)) & 0xFF
		h *= fnvPrime
	}
	return mix64(hashBytes(h, []byte(key)))
}

// Add inserts a node's virtual points; adding a member twice is a no-op.
func (r *Ring) Add(node string) {
	i := sort.SearchStrings(r.nodes, node)
	if i < len(r.nodes) && r.nodes[i] == node {
		return
	}
	r.nodes = append(r.nodes, "")
	copy(r.nodes[i+1:], r.nodes[i:])
	r.nodes[i] = node
	for v := 0; v < r.vnodes; v++ {
		h := mix64(hashBytes(r.keyHash(node), []byte(fmt.Sprintf("#%d", v))))
		r.points = append(r.points, ringPoint{hash: h, node: node})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
}

// Nodes returns the member IDs, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Lookup returns the node owning key: the first virtual point clockwise of
// the key's hash. It returns "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := r.keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
