// Shard routing: the client-side half of the fleet (internal/fleet). A
// ShardRouter computes signature placement with the same deterministic
// ring every fleet node uses — no lookup service — keeps one resilient
// *Client per node, and layers fleet failover onto the existing
// degradation ladder:
//
//   - 421 Misdirected Request: the server's redirect wins over the local
//     view — the router re-aims at the named owner and retries (covers a
//     router whose topology parameters drifted from the fleet's).
//   - transport fault / 5xx / open circuit: the node is marked dead
//     locally and the call walks the promotion chain — the same cyclic
//     successor the fleet promotes, which is exactly the node holding the
//     replicated data.
//
// Batches are partitioned by owner before posting, because a fleet node
// bounces any batch it does not wholly own.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/core"
	"github.com/rockhopper-db/rockhopper/internal/fleet"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// ShardRouterOptions parameterizes NewShardRouter. Peers, Replicas,
// Vnodes, and Seed must match the fleet's own configuration — placement is
// computed, never negotiated.
type ShardRouterOptions struct {
	// Peers maps node ID to base URL for every fleet member.
	Peers map[string]string
	// Replicas is the fleet's replica-set size (failover walk depth).
	Replicas int
	// Vnodes and Seed are the ring parameters.
	Vnodes int
	Seed   uint64
	// ClusterSecret is passed to each per-node Client.
	ClusterSecret string
	// Configure customizes each lazily built per-node Client (HTTP
	// transport, clock, metrics, retry policy); nil keeps defaults.
	Configure func(id string, c *Client)
	// Tracer records the router's client_send root span and one child span
	// per fleet hop (owner attempt, 421 redirect follow, failover walk);
	// nil records nothing.
	Tracer *telemetry.Tracer
}

// ShardRouter routes per-signature calls to the owning fleet node.
// It is safe for concurrent use.
type ShardRouter struct {
	topo          *fleet.Topology
	urls          map[string]string // node ID -> base URL
	ids           map[string]string // base URL -> node ID
	clusterSecret string
	configure     func(id string, c *Client)
	tracer        *telemetry.Tracer

	mu      sync.Mutex
	clients map[string]*Client
}

// NewShardRouter builds a router over the given fleet.
func NewShardRouter(opts ShardRouterOptions) *ShardRouter {
	ids := make([]string, 0, len(opts.Peers))
	urls := make(map[string]string, len(opts.Peers))
	byURL := make(map[string]string, len(opts.Peers))
	for id, u := range opts.Peers {
		ids = append(ids, id)
		urls[id] = u
		byURL[u] = id
	}
	sort.Strings(ids)
	return &ShardRouter{
		topo:          fleet.NewTopology(ids, opts.Replicas, opts.Vnodes, opts.Seed),
		urls:          urls,
		ids:           byURL,
		clusterSecret: opts.ClusterSecret,
		configure:     opts.Configure,
		tracer:        opts.Tracer,
		clients:       make(map[string]*Client),
	}
}

// Owner returns the node ID the router currently believes owns signature.
func (r *ShardRouter) Owner(signature string) string { return r.topo.Owner(signature) }

// MarkLive readmits a node the router had written off (operator action
// after the node rejoins).
func (r *ShardRouter) MarkLive(id string) { r.topo.MarkLive(id) }

// client returns (building lazily) the per-node Client.
func (r *ShardRouter) client(id string) *Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.clients[id]; ok {
		return c
	}
	c := New(r.urls[id], r.clusterSecret)
	if r.configure != nil {
		r.configure(id, c)
	}
	r.clients[id] = c
	return c
}

// ClientFor returns the Client for the node currently owning signature.
func (r *ShardRouter) ClientFor(signature string) (*Client, string) {
	id := r.topo.Owner(signature)
	return r.client(id), id
}

// redirectTarget extracts the owner node from a 421 response, if err is one.
func (r *ShardRouter) redirectTarget(err error) (string, bool) {
	var he *resilience.HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusMisdirectedRequest {
		return "", false
	}
	var mr backend.MisroutedResponse
	if json.Unmarshal([]byte(he.Msg), &mr) != nil {
		return "", false
	}
	id, ok := r.ids[mr.Owner]
	return id, ok
}

// transientFleet reports whether err looks like a dead node rather than a
// caller mistake: transport faults, 5xx, and an open circuit all mean "try
// the promotion chain"; any 4xx means the node is alive and the request is
// wrong.
func transientFleet(err error) bool {
	if errors.Is(err, resilience.ErrCircuitOpen) {
		return true
	}
	status := resilience.StatusOf(err)
	return status == 0 || status >= 500
}

// Do runs call against the node owning signature, following 421 redirects
// and failing over along the promotion chain when a node looks dead.
func (r *ShardRouter) Do(ctx context.Context, signature string, call func(ctx context.Context, c *Client) error) error {
	id := r.topo.Owner(signature)
	if id == "" {
		return fmt.Errorf("client: no live fleet node owns %q", signature)
	}
	// The router is the trace origin for fleet calls it starts itself: a
	// client_send root covers the whole routed call, and each hop (owner
	// attempt, redirect follow, failover walk) gets its own child span so
	// the assembled tree shows exactly which nodes the call touched.
	var root *telemetry.ActiveSpan
	if !telemetry.SpanFrom(ctx).Valid() {
		ctx, root = r.tracer.StartRoot(ctx, "client_send", "client")
	}
	finish := func(err error) error {
		if err == nil {
			root.Finish("ok")
		} else {
			root.Finish("error")
		}
		return err
	}
	tried := make(map[string]bool)
	var lastErr error
	for hops := 0; hops <= len(r.urls); hops++ {
		tried[id] = true
		hopCtx, hop := r.tracer.Start(ctx, "hop:"+id, "client")
		err := call(hopCtx, r.client(id))
		if err == nil {
			hop.Finish("ok")
			return finish(nil)
		}
		hop.Finish("error")
		lastErr = err
		if ctx.Err() != nil {
			return finish(err)
		}
		if next, ok := r.redirectTarget(err); ok {
			if next == id {
				// A node redirecting to itself is a routing disagreement
				// that following cannot fix.
				return finish(fmt.Errorf("client: self-redirect for %q: %w", signature, err))
			}
			// The server's redirect is authoritative: the fleet says next
			// is the live owner, so it overrides the local ring AND any
			// earlier transient-failure verdict on that node. The hop
			// budget still bounds a true redirect ping-pong.
			r.topo.MarkLive(next)
			id = next
			continue
		}
		if !transientFleet(err) {
			return finish(err)
		}
		r.topo.MarkDead(id)
		next := r.topo.Owner(signature)
		if next == "" || tried[next] {
			break
		}
		id = next
	}
	return finish(fmt.Errorf("client: fleet routes exhausted for %q: %w", signature, lastErr))
}

// PostEvents ingests traces for one signature at its owning node.
func (r *ShardRouter) PostEvents(ctx context.Context, user, signature, jobID string, traces []flighting.Trace) error {
	return r.Do(ctx, signature, func(ctx context.Context, c *Client) error {
		return c.PostEvents(ctx, user, signature, jobID, traces)
	})
}

// FetchModel fetches the trained model from the signature's owning node.
func (r *ShardRouter) FetchModel(ctx context.Context, user, signature string) (ml.Regressor, error) {
	var m ml.Regressor
	err := r.Do(ctx, signature, func(ctx context.Context, c *Client) error {
		var ferr error
		m, ferr = c.FetchModel(ctx, user, signature)
		return ferr
	})
	return m, err
}

// PostEventBatch partitions traces by their query_id's owning node and
// posts one wholly-owned batch per node — fleet nodes bounce mixed
// batches. The returned response aggregates all partitions; on error,
// partitions already posted stay posted. Ingest is not idempotent: a
// retry of the whole batch stores the posted partitions' runs again under
// fresh sequence numbers (ROADMAP.md item 4).
func (r *ShardRouter) PostEventBatch(ctx context.Context, user, jobID string, traces []flighting.Trace) (backend.BatchResponse, error) {
	parts := make(map[string][]flighting.Trace)
	for _, tr := range traces {
		parts[r.topo.Owner(tr.QueryID)] = append(parts[r.topo.Owner(tr.QueryID)], tr)
	}
	owners := make([]string, 0, len(parts))
	for id := range parts {
		owners = append(owners, id)
	}
	sort.Strings(owners)
	var total backend.BatchResponse
	for _, id := range owners {
		part := parts[id]
		// Route by the partition's first signature: all of them share an
		// owner, and Do re-partitions naturally via 421 if the view drifted.
		err := r.Do(ctx, part[0].QueryID, func(ctx context.Context, c *Client) error {
			resp, berr := c.PostEventBatch(ctx, user, jobID, part)
			if berr == nil {
				total.Signatures += resp.Signatures
				total.Events += resp.Events
			}
			return berr
		})
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Selector returns a RemoteSelector whose model fetch is fleet-routed:
// inference follows the shard owner, and on owner death the fetch fails
// over to the promoted replica before falling back to the local selector.
func (r *ShardRouter) Selector(space *sparksim.Space, user, signature string, fallback core.Selector) *RemoteSelector {
	c, _ := r.ClientFor(signature)
	return &RemoteSelector{
		Client:    c,
		Space:     space,
		User:      user,
		Signature: signature,
		Fallback:  fallback,
		Fetch:     r.FetchModel,
	}
}
