package fleet

import (
	"fmt"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/stats"
)

// ringNodes returns n synthetic node IDs.
func ringNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%02d", i)
	}
	return out
}

// ringKeys returns k synthetic signature keys.
func ringKeys(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("sig-%06d", i)
	}
	return out
}

// TestRingDeterministicPlacement: placement is a pure function of
// (member set, vnodes, seed) — independent of insertion order and of the
// process that computes it, because clients and nodes must agree with no
// coordination.
func TestRingDeterministicPlacement(t *testing.T) {
	t.Parallel()
	nodes, keys := ringNodes(7), ringKeys(5000)
	a := NewRing(64, 42)
	for _, n := range nodes {
		a.Add(n)
	}
	b := NewRing(64, 42)
	r := stats.NewRNG(1)
	perm := r.Perm(len(nodes))
	for _, i := range perm {
		b.Add(nodes[i])
	}
	for _, k := range keys {
		if ao, bo := a.Lookup(k), b.Lookup(k); ao != bo {
			t.Fatalf("placement differs for %q: %q vs %q (insertion order must not matter)", k, ao, bo)
		}
	}
	// A different seed must produce a genuinely different placement.
	c := NewRing(64, 43)
	for _, n := range nodes {
		c.Add(n)
	}
	moved := 0
	for _, k := range keys {
		if a.Lookup(k) != c.Lookup(k) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("seed has no effect on placement")
	}
}

// TestRingRebalanceBound: a membership change may move only the keys that
// have to move. On Add, keys move only TO the new node, and no more than
// K/N + ε of them, ε = K/(2N) for vnode placement variance.
func TestRingRebalanceBound(t *testing.T) {
	t.Parallel()
	const N, K = 10, 20000
	nodes, keys := ringNodes(N), ringKeys(K)
	ring := NewRing(0, 7)
	for _, n := range nodes {
		ring.Add(n)
	}
	before := make(map[string]string, K)
	for _, k := range keys {
		before[k] = ring.Lookup(k)
	}

	// Join: a brand-new node arrives.
	ring.Add("node-99")
	movedOnJoin := 0
	for _, k := range keys {
		now := ring.Lookup(k)
		was := before[k]
		if now != was {
			movedOnJoin++
			if now != "node-99" {
				t.Fatalf("collateral movement on join: %q moved %q -> %q", k, was, now)
			}
		}
	}
	bound := K/N + K/(2*N)
	if movedOnJoin > bound {
		t.Fatalf("join moved %d keys, bound %d (K/N + ε)", movedOnJoin, bound)
	}
	if movedOnJoin == 0 {
		t.Fatal("degenerate rebalance: the join moved no keys")
	}
}

// TestRingLoadSpread: with DefaultVnodes no node owns a pathological share.
func TestRingLoadSpread(t *testing.T) {
	t.Parallel()
	const N, K = 8, 40000
	ring := NewRing(0, 11)
	for _, n := range ringNodes(N) {
		ring.Add(n)
	}
	load := make(map[string]int, N)
	for _, k := range ringKeys(K) {
		load[ring.Lookup(k)]++
	}
	for _, n := range ring.Nodes() {
		share := load[n]
		if share == 0 {
			t.Fatalf("node %s owns no keys", n)
		}
		if share > 2*K/N {
			t.Fatalf("node %s owns %d of %d keys (> 2x fair share)", n, share, K)
		}
	}
}

// TestRingAddIsIdempotent: adding a current member again changes neither
// the member list nor any key's owner. NewTopology adds each listed node,
// so a node listed twice must be harmless.
func TestRingAddIsIdempotent(t *testing.T) {
	t.Parallel()
	ring := NewRing(16, 3)
	for _, n := range ringNodes(4) {
		ring.Add(n)
	}
	keys := ringKeys(2000)
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i] = ring.Lookup(k)
	}
	points := len(ring.points)
	for _, n := range ringNodes(4) {
		ring.Add(n)
	}
	if got := ring.Nodes(); fmt.Sprint(got) != fmt.Sprint(ringNodes(4)) {
		t.Fatalf("Nodes after re-adding every member = %v", got)
	}
	if len(ring.points) != points {
		t.Fatalf("re-adding members grew the ring from %d to %d points", points, len(ring.points))
	}
	for i, k := range keys {
		if now := ring.Lookup(k); now != before[i] {
			t.Fatalf("re-adding members moved %q from %q to %q", k, before[i], now)
		}
	}
}

// TestRingEmptyLookup: an empty ring owns nothing and says so with "",
// which Topology.Owner passes through as "no live owner".
func TestRingEmptyLookup(t *testing.T) {
	t.Parallel()
	ring := NewRing(8, 1)
	if got := ring.Lookup("sig-000001"); got != "" {
		t.Fatalf("Lookup on an empty ring = %q, want \"\"", got)
	}
	if got := ring.Nodes(); len(got) != 0 {
		t.Fatalf("Nodes on an empty ring = %v", got)
	}
}

// TestRingNodesIsACopy: Nodes returns the sorted members, and writing to
// the returned slice cannot corrupt the ring's own membership.
func TestRingNodesIsACopy(t *testing.T) {
	t.Parallel()
	ring := NewRing(8, 1)
	for _, n := range []string{"node-c", "node-a", "node-b"} {
		ring.Add(n)
	}
	got := ring.Nodes()
	if fmt.Sprint(got) != "[node-a node-b node-c]" {
		t.Fatalf("Nodes = %v, want sorted [node-a node-b node-c]", got)
	}
	got[0] = "intruder"
	if again := ring.Nodes(); again[0] != "node-a" {
		t.Fatalf("writing to Nodes' result changed the ring: %v", again)
	}
	if owner := ring.Lookup("sig-000001"); owner == "intruder" {
		t.Fatal("Lookup routed to a name written into Nodes' result")
	}
}

// FuzzRingLookup: for arbitrary keys and membership mutations the ring
// never panics and Lookup always returns a current member.
func FuzzRingLookup(f *testing.F) {
	f.Add("sig-1", uint8(3), uint64(42))
	f.Add("", uint8(1), uint64(0))
	f.Add("a/very/long\xff\x00key", uint8(9), uint64(1<<63))
	f.Fuzz(func(t *testing.T, key string, n uint8, seed uint64) {
		members := int(n%16) + 1
		ring := NewRing(int(n%8)*16, seed) // vnodes 0 (default) .. 112
		for _, id := range ringNodes(members) {
			ring.Add(id)
		}
		// Churn: re-add one member (a no-op) and add a stranger.
		ring.Add(fmt.Sprintf("node-%02d", int(seed)%members))
		ring.Add("node-zz")
		live := map[string]bool{}
		for _, id := range ring.Nodes() {
			live[id] = true
		}
		owner := ring.Lookup(key)
		if !live[owner] {
			t.Fatalf("Lookup(%q) = %q, not a live member of %v", key, owner, ring.Nodes())
		}
	})
}
