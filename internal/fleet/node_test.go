package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

const testClusterSecret = "fleet-cluster-secret"

// handlerSwap lets an httptest server start before the node whose handler
// it will serve exists (the node needs every peer URL up front).
type handlerSwap struct{ h atomic.Value }

func (s *handlerSwap) set(h http.Handler) { s.h.Store(h) }

func (s *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not ready", http.StatusServiceUnavailable)
}

// testFleet is an n-node HTTP fleet on loopback.
type testFleet struct {
	nodes   map[string]*Node
	servers map[string]*httptest.Server
	peers   map[string]string
}

func newTestFleet(t *testing.T, ids []string, replicas int, tweak func(id string, opts *NodeOptions)) *testFleet {
	t.Helper()
	f := &testFleet{
		nodes:   make(map[string]*Node),
		servers: make(map[string]*httptest.Server),
		peers:   make(map[string]string),
	}
	swaps := make(map[string]*handlerSwap)
	for _, id := range ids {
		sw := &handlerSwap{}
		srv := httptest.NewServer(sw)
		swaps[id] = sw
		f.servers[id] = srv
		f.peers[id] = srv.URL
	}
	ctx, cancel := context.WithCancel(context.Background())
	for _, id := range ids {
		opts := NodeOptions{
			ID:            id,
			Peers:         f.peers,
			Replicas:      replicas,
			Vnodes:        16,
			Seed:          42,
			Space:         sparksim.QuerySpace(),
			DataDir:       t.TempDir(),
			StoreSecret:   testSecret,
			ClusterSecret: testClusterSecret,
			Metrics:       telemetry.NewRegistry(),
			NoSync:        true,
			RetryDelay:    2 * time.Millisecond,
		}
		if tweak != nil {
			tweak(id, &opts)
		}
		n, err := NewNode(opts)
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

// sigOwnedBy finds a signature the given node owns under the fleet's seed.
func sigOwnedBy(t *testing.T, f *testFleet, node string, skip map[string]bool) string {
	t.Helper()
	topo := f.nodes[node].Topology()
	for i := 0; i < 10000; i++ {
		sig := fmt.Sprintf("sig-%04d", i)
		if skip[sig] {
			continue
		}
		if topo.Owner(sig) == node {
			return sig
		}
	}
	t.Fatalf("no signature owned by %s in 10000 candidates", node)
	return ""
}

// postEvent ingests one trace for sig at the given node.
func postEvent(t *testing.T, f *testFleet, node, sig, job string) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	space := sparksim.QuerySpace()
	if err := flighting.WriteTraces(&buf, []flighting.Trace{{
		QueryID: sig, Config: space.Default(), DataSize: 1, TimeMs: 100,
	}}); err != nil {
		t.Fatal(err)
	}
	n := f.nodes[node]
	tok := n.Store().Sign("events/", store.PermWrite, n.Backend().TokenTTL)
	url := fmt.Sprintf("%s/api/events?user=u&signature=%s&job_id=%s", f.peers[node], sig, job)
	req, err := http.NewRequest(http.MethodPost, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(backend.SASTokenHeader, tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// eventsOf filters a store export down to ingested event objects.
func eventsOf(s *store.DurableStore) []store.Entry {
	var out []store.Entry
	for _, e := range s.Export() {
		if len(e.Path) >= 7 && e.Path[:7] == "events/" {
			out = append(out, e)
		}
	}
	return out
}

func TestNodeMisrouteBouncesAndReplicationGatesAck(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b"}, 2, nil)
	sig := sigOwnedBy(t, f, "a", nil)

	// Misrouted ingest bounces with 421 and names the owner.
	resp := postEvent(t, f, "b", sig, "job-1")
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted ingest status = %d, want 421", resp.StatusCode)
	}
	var mr backend.MisroutedResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Owner != f.peers["a"] {
		t.Fatalf("misroute owner = %q, want %q", mr.Owner, f.peers["a"])
	}
	if mr.Signature != sig {
		t.Fatalf("misroute signature = %q, want %q", mr.Signature, sig)
	}
	if len(eventsOf(f.nodes["b"].Store())) != 0 {
		t.Fatal("misrouted event must not be persisted")
	}

	// Correctly routed ingest is accepted, and by the time the 202 lands
	// the follower's replica already holds the event byte-identically.
	resp = postEvent(t, f, "a", sig, "job-1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("owner ingest status = %d, want 202", resp.StatusCode)
	}
	ownerEvents := eventsOf(f.nodes["a"].Store())
	if len(ownerEvents) != 1 {
		t.Fatalf("owner persisted %d events, want 1", len(ownerEvents))
	}
	replica := f.nodes["b"].replicas["a"]
	if replica == nil {
		t.Fatal("node b does not hold a replica store for a")
	}
	replicaEvents := eventsOf(replica)
	if len(replicaEvents) != 1 {
		t.Fatalf("replica holds %d events at ack time, want 1", len(replicaEvents))
	}
	if replicaEvents[0].Path != ownerEvents[0].Path {
		t.Fatalf("replica path %q vs owner %q", replicaEvents[0].Path, ownerEvents[0].Path)
	}
	if !bytes.Equal(replicaEvents[0].Data, ownerEvents[0].Data) {
		t.Fatal("replica event bytes differ from owner's")
	}
	if !replicaEvents[0].Created.Equal(ownerEvents[0].Created) {
		t.Fatal("replica event timestamp differs from owner's")
	}
}

func TestNodePromoteServesDeadOwnersData(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b"}, 2, nil)

	// Ingest three signatures owned by a; every 202 is replicated to b.
	used := make(map[string]bool)
	var sigs []string
	for i := 0; i < 3; i++ {
		sig := sigOwnedBy(t, f, "a", used)
		used[sig] = true
		sigs = append(sigs, sig)
		if resp := postEvent(t, f, "a", sig, "job-1"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %s: status = %d", sig, resp.StatusCode)
		}
	}
	deadEvents := eventsOf(f.nodes["a"].Store())
	if len(deadEvents) != 3 {
		t.Fatalf("owner persisted %d events, want 3", len(deadEvents))
	}

	// Kill a and promote b through the operator endpoint.
	f.servers["a"].Close()
	req, _ := http.NewRequest(http.MethodPost, f.peers["b"]+"/api/fleet/promote?node=a", nil)
	req.Header.Set(backend.ClusterTokenHeader, testClusterSecret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Promoted) != 1 || st.Promoted[0] != "a" {
		t.Fatalf("promoted = %v, want [a]", st.Promoted)
	}

	// b now owns the dead node's signatures and serves every acknowledged
	// event byte-identically from its absorbed replica.
	for _, sig := range sigs {
		if owner := f.nodes["b"].Topology().Owner(sig); owner != "b" {
			t.Fatalf("after promote, owner(%s) = %q, want b", sig, owner)
		}
	}
	absorbed := make(map[string]store.Entry)
	for _, e := range eventsOf(f.nodes["b"].Store()) {
		absorbed[e.Path] = e
	}
	for _, want := range deadEvents {
		got, ok := absorbed[want.Path]
		if !ok {
			t.Fatalf("acknowledged event %s lost after promote", want.Path)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("event %s: bytes differ after promote", want.Path)
		}
		if !got.Created.Equal(want.Created) {
			t.Fatalf("event %s: timestamp differs after promote", want.Path)
		}
	}

	// New ingest for an absorbed signature lands on b directly — and does
	// not block on the dead follower's acknowledgement.
	if resp := postEvent(t, f, "b", sigs[0], "job-2"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-promote ingest status = %d, want 202", resp.StatusCode)
	}
}

func TestNodeHeartbeatPromotesAfterOwnerDeath(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b"}, 2, func(id string, opts *NodeOptions) {
		opts.HeartbeatInterval = 5 * time.Millisecond
		opts.HeartbeatFailures = 2
	})
	sig := sigOwnedBy(t, f, "a", nil)
	if resp := postEvent(t, f, "a", sig, "job-1"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	f.servers["a"].Close()
	deadline := time.Now().Add(5 * time.Second)
	for f.nodes["b"].Topology().Owner(sig) != "b" {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never promoted b after owner death")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(eventsOf(f.nodes["b"].Store())) == 0 {
		t.Fatal("promoted node absorbed no events")
	}
}

// TestNodePromoteAbsorbsBeforeRouting: the dead owner's keys route to the
// promotion target only once its replica is absorbed. Every absorb commit
// runs while the topology still names the dead owner, so no request is
// served here without the history.
func TestNodePromoteAbsorbsBeforeRouting(t *testing.T) {
	var (
		watching    atomic.Bool
		sig         string
		topo        *Topology
		absorbs     atomic.Int32
		routedEarly atomic.Int32
	)
	f := newTestFleet(t, []string{"a", "b"}, 2, func(id string, opts *NodeOptions) {
		if id != "b" {
			return
		}
		// The crash-point injector sees every commit of b's primary.
		opts.Hooks = func(p store.CrashPoint) error {
			if p == store.CrashPreWrite && watching.Load() {
				absorbs.Add(1)
				if topo.Owner(sig) == "b" {
					routedEarly.Add(1)
				}
			}
			return nil
		}
	})
	sig = sigOwnedBy(t, f, "a", nil)
	topo = f.nodes["b"].Topology()
	if resp := postEvent(t, f, "a", sig, "job-1"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	f.servers["a"].Close()
	watching.Store(true)
	f.nodes["b"].Promote("a")
	watching.Store(false)

	if absorbs.Load() == 0 {
		t.Fatal("promotion committed nothing")
	}
	if n := routedEarly.Load(); n != 0 {
		t.Fatalf("%d of %d absorb commit(s) ran after the dead owner's keys already routed here", n, absorbs.Load())
	}
	if owner := topo.Owner(sig); owner != "b" {
		t.Fatalf("after Promote the signature routes to %q, want b", owner)
	}
	if len(eventsOf(f.nodes["b"].Store())) == 0 {
		t.Fatal("promoted node absorbed no events")
	}
}

// TestRetentionSweepErasesEveryReplica: the owner's retention sweep reaps an
// aged event, and once replication settles no file under either node's data
// directory holds its bytes, on the owner's primary or the follower's
// replica, with no Compact call.
func TestRetentionSweepErasesEveryReplica(t *testing.T) {
	dirs := map[string]string{}
	f := newTestFleet(t, []string{"a", "b"}, 2, func(id string, opts *NodeOptions) { dirs[id] = opts.DataDir })
	sig := sigOwnedBy(t, f, "a", nil)
	if resp := postEvent(t, f, "a", sig, "job-1"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	a := f.nodes["a"]
	a.Backend().Flush()
	events := eventsOf(a.Store())
	if len(events) != 1 {
		t.Fatalf("owner holds %d event(s), want 1", len(events))
	}
	payload := events[0].Data
	for id, dir := range dirs {
		if len(filesHolding(t, dir, payload)) == 0 {
			t.Fatalf("node %s: the payload must be on disk before the sweep", id)
		}
	}

	if n := a.Store().CleanupOlderThan(time.Nanosecond); n != 1 {
		t.Fatalf("sweep reaped %d event(s), want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Replicator().WaitReplicated(ctx, a.Store().Seq()); err != nil {
		t.Fatalf("replication did not settle: %v", err)
	}
	for id, dir := range dirs {
		if held := filesHolding(t, dir, payload); len(held) != 0 {
			t.Errorf("node %s: reaped payload still on disk in %v", id, held)
		}
	}
}

// filesHolding returns every file under dir whose bytes contain b.
func filesHolding(t *testing.T, dir string, b []byte) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err == nil && bytes.Contains(data, b) {
			out = append(out, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNodeFleetEndpointsRequireClusterToken(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b"}, 2, nil)
	req, _ := http.NewRequest(http.MethodPost, f.peers["b"]+"/api/fleet/promote?node=a", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated promote status = %d, want 401", resp.StatusCode)
	}
}
