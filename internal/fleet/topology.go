// Topology: the consistent-hash ring plus liveness and promotion. Routing
// must keep working while a node is down WITHOUT re-hashing — the dead
// node's keys live on its followers, nowhere else — so a transient death
// routes every key the dead node owned to its first live successor in the
// cyclic node-ID order (the promotion rule). Membership is fixed when the
// topology is constructed, so placement never moves. Every party (backend
// nodes, clients, drills) computes the same answer from the same membership
// + liveness facts.
package fleet

import (
	"sort"
	"sync"
)

// Topology is the synchronized fleet view: ring placement, replica fan-out,
// and per-node liveness. All methods are safe for concurrent use.
type Topology struct {
	mu       sync.RWMutex
	ring     *Ring
	replicas int
	order    []string // sorted node IDs: the promotion/follower chain
	down     map[string]bool
}

// NewTopology builds a topology over the given members. replicas is the
// replica-set size including the owner (clamped to [1, len(nodes)]);
// vnodes and seed parameterize the ring exactly as NewRing does.
func NewTopology(nodes []string, replicas, vnodes int, seed uint64) *Topology {
	ring := NewRing(vnodes, seed)
	for _, n := range nodes {
		ring.Add(n)
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(ring.nodes) {
		replicas = len(ring.nodes)
	}
	return &Topology{
		ring:     ring,
		replicas: replicas,
		order:    ring.Nodes(),
		down:     make(map[string]bool),
	}
}

// Replicas returns the replica-set size (owner included).
func (t *Topology) Replicas() int { return t.replicas }

// Nodes returns the member IDs, sorted.
func (t *Topology) Nodes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]string(nil), t.order...)
}

// HomeOwner returns the ring owner of a signature, ignoring liveness — the
// node that owns the shard whenever it is up.
func (t *Topology) HomeOwner(signature string) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ring.Lookup(signature)
}

// Owner returns the live node currently serving a signature: the home
// owner when it is up, otherwise the promotion walk — the first live node
// in cyclic node-ID order after it. Inside the replica set that successor
// holds the shard's replicated data; past it (multiple simultaneous
// deaths) routing still lands on a live node, which serves degraded
// (cold-start) state. Returns "" when every node is down.
func (t *Topology) Owner(signature string) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.liveFromLocked(t.ring.Lookup(signature), "")
}

// successor returns the node that node's keys route to once node is marked
// dead: the promotion walk from node, passing over node itself. Promote
// reads it before MarkDead, to absorb the replica before keys move.
func (t *Topology) successor(node string) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.liveFromLocked(node, node)
}

// liveFromLocked walks the cyclic successor chain starting at node until a
// live member other than skip is found.
func (t *Topology) liveFromLocked(node, skip string) string {
	if node == "" {
		return ""
	}
	i := sort.SearchStrings(t.order, node)
	for k := 0; k < len(t.order); k++ {
		n := t.order[(i+k)%len(t.order)]
		if n != skip && !t.down[n] {
			return n
		}
	}
	return ""
}

// FollowersOf returns the nodes replicating node's shard: its replicas-1
// cyclic successors in node-ID order. The chain is a pure function of the
// membership list, so owners, followers, and clients agree on it without
// coordination.
func (t *Topology) FollowersOf(node string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return followers(t.order, node, t.replicas-1)
}

// followers returns up to n cyclic successors of node in the sorted order.
func followers(order []string, node string, n int) []string {
	i := sort.SearchStrings(order, node)
	if i >= len(order) || order[i] != node {
		return nil
	}
	if n > len(order)-1 {
		n = len(order) - 1
	}
	out := make([]string, 0, n)
	for k := 1; k <= n; k++ {
		out = append(out, order[(i+k)%len(order)])
	}
	return out
}

// ReplicaSet returns the nodes holding a signature's shard: the home owner
// followed by its followers.
func (t *Topology) ReplicaSet(signature string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	home := t.ring.Lookup(signature)
	if home == "" {
		return nil
	}
	return append([]string{home}, followers(t.order, home, t.replicas-1)...)
}

// MarkDead records a node as down and returns the promotion target its
// keys now route to ("" when the whole fleet is down). changed is false
// when the node was already marked.
func (t *Topology) MarkDead(node string) (promoted string, changed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down[node] {
		return t.liveFromLocked(node, ""), false
	}
	t.down[node] = true
	return t.liveFromLocked(node, ""), true
}

// MarkLive clears a node's down mark; its keys route home again. Reports
// whether the mark changed.
func (t *Topology) MarkLive(node string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.down[node] {
		return false
	}
	delete(t.down, node)
	return true
}
