package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/eventlog"
	"github.com/rockhopper-db/rockhopper/internal/fleet"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

const (
	shardSecret = "shard-cluster-secret"
	shardSeed   = 42
	shardVnodes = 16
)

// swapHandler lets an httptest server start before its node exists.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) set(h http.Handler) { s.h.Store(h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not ready", http.StatusServiceUnavailable)
}

// shardFleet is a real fleet for router tests.
type shardFleet struct {
	nodes   map[string]*fleet.Node
	servers map[string]*httptest.Server
	peers   map[string]string
}

func newShardFleet(t *testing.T, ids []string) *shardFleet {
	t.Helper()
	f := &shardFleet{
		nodes:   make(map[string]*fleet.Node),
		servers: make(map[string]*httptest.Server),
		peers:   make(map[string]string),
	}
	swaps := make(map[string]*swapHandler)
	for _, id := range ids {
		sw := &swapHandler{}
		srv := httptest.NewServer(sw)
		swaps[id] = sw
		f.servers[id] = srv
		f.peers[id] = srv.URL
	}
	ctx, cancel := context.WithCancel(context.Background())
	for _, id := range ids {
		n, err := fleet.NewNode(fleet.NodeOptions{
			ID:            id,
			Peers:         f.peers,
			Replicas:      len(ids),
			Vnodes:        shardVnodes,
			Seed:          shardSeed,
			Space:         sparksim.QuerySpace(),
			DataDir:       t.TempDir(),
			StoreSecret:   []byte("shard-test-secret"),
			ClusterSecret: shardSecret,
			NoSync:        true,
			RetryDelay:    2 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewNode(%s): %v", id, err)
		}
		f.nodes[id] = n
		swaps[id].set(n.Handler())
	}
	for _, n := range f.nodes {
		n.Start(ctx)
	}
	t.Cleanup(func() {
		cancel()
		for _, srv := range f.servers {
			srv.Close()
		}
		for _, n := range f.nodes {
			n.Close()
		}
	})
	return f
}

func (f *shardFleet) router(t *testing.T, vnodes int) *ShardRouter {
	t.Helper()
	return NewShardRouter(ShardRouterOptions{
		Peers:         f.peers,
		Replicas:      len(f.peers),
		Vnodes:        vnodes,
		Seed:          shardSeed,
		ClusterSecret: shardSecret,
		Configure: func(id string, c *Client) {
			// Dead-node probes should fail fast in tests.
			c.Retry = resilience.Policy{MaxAttempts: 1}
			c.Breaker = nil
		},
	})
}

func shardTrace(sig string) []flighting.Trace {
	space := sparksim.QuerySpace()
	return []flighting.Trace{{QueryID: sig, Config: space.Default(), DataSize: 1, TimeMs: 100}}
}

// fleetSigOwnedBy finds a signature the fleet places on the given node.
func fleetSigOwnedBy(t *testing.T, f *shardFleet, node string) string {
	t.Helper()
	topo := f.nodes[node].Topology()
	for i := 0; i < 10000; i++ {
		sig := fmt.Sprintf("sig-%04d", i)
		if topo.Owner(sig) == node {
			return sig
		}
	}
	t.Fatalf("no signature owned by %s", node)
	return ""
}

func TestShardRouterRoutesToOwner(t *testing.T) {
	f := newShardFleet(t, []string{"a", "b"})
	r := f.router(t, shardVnodes)
	sig := fleetSigOwnedBy(t, f, "a")
	if got := r.Owner(sig); got != "a" {
		t.Fatalf("router owner(%s) = %q, want a (client and fleet placement must agree)", sig, got)
	}
	if err := r.PostEvents(context.Background(), "u", sig, "job-1", shardTrace(sig)); err != nil {
		t.Fatalf("PostEvents: %v", err)
	}
	if n := len(f.nodes["a"].Store().List("events/")); n != 1 {
		t.Fatalf("owner holds %d event files, want 1", n)
	}
	if n := len(f.nodes["b"].Store().List("events/")); n != 0 {
		t.Fatalf("non-owner holds %d event files, want 0", n)
	}
}

func TestShardRouterFollows421Redirect(t *testing.T) {
	f := newShardFleet(t, []string{"a", "b"})
	// A router with drifted ring parameters misroutes some signatures; the
	// server's 421 redirect must win over the stale local view.
	stale := f.router(t, shardVnodes*4)
	var sig, owner string
	for i := 0; i < 10000 && sig == ""; i++ {
		cand := fmt.Sprintf("sig-%04d", i)
		fleetOwner := f.nodes["a"].Topology().Owner(cand)
		if stale.Owner(cand) != fleetOwner {
			sig, owner = cand, fleetOwner
		}
	}
	if sig == "" {
		t.Skip("drifted view agrees on 10000 signatures; nothing to redirect")
	}
	if err := stale.PostEvents(context.Background(), "u", sig, "job-1", shardTrace(sig)); err != nil {
		t.Fatalf("PostEvents through stale router: %v", err)
	}
	if n := len(f.nodes[owner].Store().List("events/")); n != 1 {
		t.Fatalf("true owner %s holds %d event files, want 1", owner, n)
	}
}

func TestShardRouterFailsOverToPromotedReplica(t *testing.T) {
	f := newShardFleet(t, []string{"a", "b"})
	r := f.router(t, shardVnodes)
	sig := fleetSigOwnedBy(t, f, "a")
	if err := r.PostEvents(context.Background(), "u", sig, "job-1", shardTrace(sig)); err != nil {
		t.Fatalf("PostEvents: %v", err)
	}

	// Owner dies; the fleet promotes b. The router discovers the death on
	// its next call and walks to the same node the fleet promoted.
	f.servers["a"].Close()
	f.nodes["b"].Promote("a")
	if err := r.PostEvents(context.Background(), "u", sig, "job-2", shardTrace(sig)); err != nil {
		t.Fatalf("PostEvents after owner death: %v", err)
	}
	if got := r.Owner(sig); got != "b" {
		t.Fatalf("router owner after failover = %q, want b", got)
	}
	// b absorbed job-1's replicated event and ingested job-2 directly.
	if n := len(f.nodes["b"].Store().List("events/")); n != 2 {
		t.Fatalf("promoted node holds %d event files, want 2", n)
	}
}

// indexSelector is a trivial local fallback.
type indexSelector struct{ idx int }

func (s indexSelector) Select([]sparksim.Config, []sparksim.Observation, float64) int { return s.idx }

func TestShardSelectorColdStartFallsBack(t *testing.T) {
	f := newShardFleet(t, []string{"a", "b"})
	r := f.router(t, shardVnodes)
	sig := fleetSigOwnedBy(t, f, "a")
	space := sparksim.QuerySpace()
	sel := r.Selector(space, "u", sig, indexSelector{idx: 2})
	cands := []sparksim.Config{space.Default(), space.Default(), space.Default()}
	if got := sel.Select(cands, nil, 1); got != 2 {
		t.Fatalf("cold-start Select = %d, want fallback index 2", got)
	}
	if sel.Degraded() {
		t.Fatal("cold start must not count as degradation")
	}
}

func TestShardRouterPartitionsBatchesByOwner(t *testing.T) {
	f := newShardFleet(t, []string{"a", "b"})
	r := f.router(t, shardVnodes)
	sigA, sigB := fleetSigOwnedBy(t, f, "a"), fleetSigOwnedBy(t, f, "b")
	traces := append(shardTrace(sigA), shardTrace(sigB)...)
	resp, err := r.PostEventBatch(context.Background(), "u", "job-1", traces)
	if err != nil {
		t.Fatalf("PostEventBatch: %v", err)
	}
	if resp.Signatures != 2 || resp.Events != 2 {
		t.Fatalf("batch response = %+v, want 2 signatures / 2 events", resp)
	}
	if n := len(f.nodes["a"].Store().List("events/")); n != 1 {
		t.Fatalf("node a holds %d event files, want 1", n)
	}
	if n := len(f.nodes["b"].Store().List("events/")); n != 1 {
		t.Fatalf("node b holds %d event files, want 1", n)
	}
}

// TestShardRouterDigestedLogTrainsOnOwners: a raw event log spanning
// signatures that different nodes own is digested on the client and posted
// through the router, which partitions it by owner; every signature's model
// is then trained on its ring owner, where FetchModel looks for it.
func TestShardRouterDigestedLogTrainsOnOwners(t *testing.T) {
	f := newShardFleet(t, []string{"a", "b", "c"})
	r := f.router(t, shardVnodes)
	space := sparksim.QuerySpace()
	e := sparksim.NewEngine(space)
	gen := workloads.NewGenerator(3)
	rng := stats.NewRNG(9)

	// One query per owner, four runs each: the retrain threshold.
	owners := map[string]string{} // owner -> signature
	var log bytes.Buffer
	id := int64(0)
	for qi := 1; qi <= 60 && len(owners) < len(f.nodes); qi++ {
		q := gen.Query(workloads.TPCDS, qi)
		sig := sparksim.Signature(q.Plan)
		owner := f.nodes["a"].Topology().Owner(sig)
		if _, ok := owners[owner]; ok {
			continue
		}
		owners[owner] = sig
		for i := 0; i < 4; i++ {
			cfg := space.Random(rng)
			o := e.Run(q, cfg, 1, rng, noise.Low)
			o.Iteration = i
			stages, _ := e.Explain(q, cfg, 1)
			if err := eventlog.WriteRun(&log, id, space, q, o, stages, 3); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	if len(owners) < 2 {
		t.Fatalf("60 queries map to owners %v; the test needs two", owners)
	}

	traces, err := eventlog.Digest(log.Bytes(), space)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := r.PostEventBatch(context.Background(), "u", "job-raw", traces)
	if err != nil {
		t.Fatalf("PostEventBatch: %v", err)
	}
	if resp.Signatures != len(owners) || resp.Events != 4*len(owners) {
		t.Fatalf("batch response = %+v, want %d signatures / %d events", resp, len(owners), 4*len(owners))
	}
	for _, n := range f.nodes {
		n.Backend().Flush()
	}
	for owner, sig := range owners {
		if _, err := f.nodes[owner].Store().GetInternal(store.ModelPath("u", sig)); err != nil {
			t.Errorf("owner %s holds no model for %s: %v", owner, sig, err)
		}
		m, err := r.FetchModel(context.Background(), "u", sig)
		if err != nil || m == nil {
			t.Errorf("FetchModel(%s) owned by %s = %v, %v; want a model", sig, owner, m, err)
		}
	}
}
