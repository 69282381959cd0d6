// Node: one member of a Rockhopper backend fleet. Each node runs
//
//   - a primary durable store for the shards it owns, with the store's
//     OnAppend tap feeding a Replicator that log-ships every WAL frame to
//     the node's followers;
//   - one follower (replica) durable store per peer it follows, fed by
//     that peer's shipped frames through the fleet HTTP endpoints;
//   - the full backend HTTP surface, with FleetHooks installed so
//     misrouted ingests bounce (421) to the owning node and every 202 is
//     gated on follower acknowledgement;
//   - a pull heartbeat that detects a dead owner it follows and promotes
//     itself: the replica store's state is absorbed into the primary
//     (timestamps preserved, idempotent), after which the dead node's
//     signatures are served here — byte-identically, because the replica
//     held a verbatim copy of the owner's log.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/flightrec"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// Fleet HTTP defaults.
const (
	// DefaultHeartbeatFailures is how many consecutive heartbeat misses
	// mark an owner dead.
	DefaultHeartbeatFailures = 3
	// promoteChunk bounds one absorb group commit, so promoting a large
	// shard produces bounded WAL records instead of one giant frame.
	promoteChunk = 1024
)

// NodeOptions parameterizes NewNode.
type NodeOptions struct {
	// ID is this node's identifier; it must appear as a key in Peers.
	ID string
	// Peers maps every fleet member (this node included) to its base URL.
	Peers map[string]string
	// Replicas is the replica-set size including the owner.
	Replicas int
	// Vnodes and Seed parameterize ring placement; all members and all
	// clients must agree on them.
	Vnodes int
	Seed   uint64

	// Space is the Spark parameter space the backend tunes over.
	Space *sparksim.Space
	// DataDir roots the node's stores: primary under DataDir/primary,
	// replicas under DataDir/replica-<owner>.
	DataDir string
	// StoreSecret signs access tokens; ClusterSecret authenticates both
	// cluster clients and fleet peer calls.
	StoreSecret   []byte
	ClusterSecret string

	// Clock drives heartbeats, retries, and store timestamps; nil means
	// the wall clock. Metrics receives every instrument; nil discards.
	Clock   resilience.Clock
	Metrics *telemetry.Registry
	Logger  *log.Logger
	// HTTPClient performs peer calls; nil means http.DefaultClient.
	HTTPClient *http.Client
	// PeerFactory overrides the peer transport (in-process tests); nil
	// means HTTP against the peer's base URL.
	PeerFactory func(followerID, baseURL string) Peer

	// Store tuning, passed through to the primary store. Hooks is the
	// crash-point injector the failover drills use to kill the owner at
	// exact durability states.
	SnapshotInterval time.Duration
	CompactEvery     int
	NoSync           bool
	Hooks            func(store.CrashPoint) error

	// Replication tuning (see ReplicatorOptions).
	MaxBuffer  int
	RetryDelay time.Duration
	// HeartbeatInterval is the owner-liveness poll cadence; <= 0 disables
	// the failure detector (drills then drive Promote directly).
	HeartbeatInterval time.Duration
	// HeartbeatFailures is the consecutive-miss threshold; 0 means
	// DefaultHeartbeatFailures.
	HeartbeatFailures int

	// TraceRingSpans sizes the backend's span ring (autotuned -trace-ring);
	// <= 0 means the backend default.
	TraceRingSpans int
	// SLOLatency is the per-request latency objective passed to the
	// backend; a breach dumps the flight recorder. <= 0 disables the check.
	SLOLatency time.Duration
	// FlightRecorder is the node's black-box event ring; nil disables it.
	// The node dumps it on a durable-store crash latch and on promotion.
	FlightRecorder *flightrec.Recorder
}

// Node is one fleet member. Construct with NewNode, mount Handler, then
// Start; Close releases the stores.
type Node struct {
	id            string
	peers         map[string]string
	topo          *Topology
	space         *sparksim.Space
	clusterSecret string
	clock         resilience.Clock
	logger        *log.Logger
	httpClient    *http.Client
	hbInterval    time.Duration
	hbFailures    int

	primary  *store.DurableStore
	replicas map[string]*store.DurableStore // ownerID -> replica store
	repl     *Replicator
	backend  *backend.Server
	flight   *flightrec.Recorder

	ownershipMoves telemetry.Counter

	mu       sync.Mutex
	promoted map[string]bool // dead owners this node has absorbed
	wg       sync.WaitGroup
}

// NewNode opens the node's stores and builds its backend. Nothing ships
// until Start.
func NewNode(opts NodeOptions) (*Node, error) {
	if opts.ID == "" {
		return nil, errors.New("fleet: node needs an ID")
	}
	if _, ok := opts.Peers[opts.ID]; !ok {
		return nil, fmt.Errorf("fleet: node %q is not in the peer map", opts.ID)
	}
	ids := make([]string, 0, len(opts.Peers))
	for id := range opts.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	clock := opts.Clock
	if clock == nil {
		clock = resilience.RealClock{}
	}
	n := &Node{
		id:            opts.ID,
		peers:         opts.Peers,
		topo:          NewTopology(ids, opts.Replicas, opts.Vnodes, opts.Seed),
		space:         opts.Space,
		clusterSecret: opts.ClusterSecret,
		clock:         clock,
		logger:        opts.Logger,
		httpClient:    opts.HTTPClient,
		hbInterval:    opts.HeartbeatInterval,
		hbFailures:    opts.HeartbeatFailures,
		replicas:      make(map[string]*store.DurableStore),
		promoted:      make(map[string]bool),
		flight:        opts.FlightRecorder,
		ownershipMoves: opts.Metrics.Counter("rockhopper_fleet_ownership_moves_total",
			"Shard ownership moves (node deaths absorbed by a follower).").With(),
	}
	if n.httpClient == nil {
		n.httpClient = http.DefaultClient
	}
	if n.hbFailures <= 0 {
		n.hbFailures = DefaultHeartbeatFailures
	}

	primary, err := store.OpenDurable(opts.DataDir+"/primary", opts.StoreSecret, store.DurableOptions{
		Clock:            clock,
		SnapshotInterval: opts.SnapshotInterval,
		CompactEvery:     opts.CompactEvery,
		NoSync:           opts.NoSync,
		Logger:           opts.Logger,
		Hooks:            opts.Hooks,
		Metrics:          opts.Metrics,
		OnAppend:         func(seq uint64, frame []byte, sc telemetry.SpanContext) { n.repl.Observe(seq, frame, sc) },
		OnDown:           n.storeCrashed,
	})
	if err != nil {
		return nil, err
	}
	n.primary = primary

	// Open one replica store per owner this node follows. Crash hooks are
	// NOT installed on replica stores: drills kill owners, and a follower
	// that dies is simply a lagging peer.
	for _, owner := range ids {
		if owner == n.id {
			continue
		}
		follows := false
		for _, f := range n.topo.FollowersOf(owner) {
			if f == n.id {
				follows = true
				break
			}
		}
		if !follows {
			continue
		}
		rs, err := store.OpenDurable(opts.DataDir+"/replica-"+pathSafe(owner), opts.StoreSecret, store.DurableOptions{
			Clock:   clock,
			NoSync:  opts.NoSync,
			Logger:  opts.Logger,
			Metrics: nil, // replica stores stay off the primary WAL series
		})
		if err != nil {
			primary.Close()
			for _, r := range n.replicas {
				r.Close()
			}
			return nil, err
		}
		n.replicas[owner] = rs
	}

	n.repl = NewReplicator(primary, ReplicatorOptions{
		Clock:      clock,
		Metrics:    opts.Metrics,
		MaxBuffer:  opts.MaxBuffer,
		RetryDelay: opts.RetryDelay,
	})
	for _, f := range n.topo.FollowersOf(n.id) {
		if opts.PeerFactory != nil {
			n.repl.AddPeer(f, opts.PeerFactory(f, opts.Peers[f]))
		} else {
			n.repl.AddPeer(f, &httpPeer{
				client: n.httpClient,
				base:   opts.Peers[f],
				from:   n.id,
				secret: opts.ClusterSecret,
			})
		}
	}

	b := backend.New(opts.Space, primary, opts.ClusterSecret, opts.Seed)
	// Identity and ring sizing must land before SetMetrics: bindTelemetry
	// bakes both into the tracer it constructs.
	b.NodeName = opts.ID
	b.TraceRingSpans = opts.TraceRingSpans
	b.SLOLatency = opts.SLOLatency
	if opts.Clock != nil {
		b.SetClock(opts.Clock)
	}
	if opts.Metrics != nil {
		b.SetMetrics(opts.Metrics)
	}
	b.SetFlightRecorder(opts.FlightRecorder)
	b.Logger = opts.Logger
	b.SetFleet(n)
	n.backend = b
	// Every co-located component records into the backend's span ring: the
	// primary's WAL commits, the follower stores' replicated applies, and
	// the replicator's ship/wait pipeline all join one /api/trace surface.
	primary.SetTracer(b.Tracer())
	for _, rs := range n.replicas {
		rs.SetTracer(b.Tracer())
	}
	n.repl.SetTracer(b.Tracer())
	return n, nil
}

// storeCrashed is the primary store's OnDown observer: the node's black box
// dumps itself the moment durability latches, preserving the events that
// led up to the crash. Called under the store lock; the recorder never
// calls back into the store.
func (n *Node) storeCrashed(err error) {
	n.flight.Eventf(flightrec.LevelError, "store", telemetry.SpanContext{}, "durable store latched down: %v", err)
	if path, derr := n.flight.Dump("store_crash_latch"); derr != nil {
		n.logf("fleet: flight-recorder dump failed: %v", derr)
	} else if path != "" {
		n.logf("fleet: store crash latch; flight recorder dumped to %s", path)
	}
}

// pathSafe makes a node ID usable as a directory segment.
func pathSafe(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, id)
}

// Backend exposes the node's backend server (tuning knobs, Flush).
func (n *Node) Backend() *backend.Server { return n.backend }

// Store exposes the node's primary durable store.
func (n *Node) Store() *store.DurableStore { return n.primary }

// Topology exposes the node's fleet view (drills mark deaths through it).
func (n *Node) Topology() *Topology { return n.topo }

// Replicator exposes the shipping pipeline (tests assert on lag).
func (n *Node) Replicator() *Replicator { return n.repl }

// OwnerOf implements backend.FleetHooks: it resolves the signature through
// the topology (promotion walk included) to the owning node's address.
func (n *Node) OwnerOf(signature string) (owner string, self bool) {
	id := n.topo.Owner(signature)
	if id == n.id {
		return n.peers[id], true
	}
	return n.peers[id], false
}

// AwaitReplication implements backend.FleetHooks: it blocks until every
// follower acknowledged the primary's current sequence number. Requests
// call it after their commit, so the awaited sequence covers the commit.
func (n *Node) AwaitReplication(ctx context.Context) error {
	return n.repl.WaitReplicated(ctx, n.primary.Seq())
}

// Start launches the replication pipelines and the heartbeat failure
// detector. The goroutines exit when ctx is cancelled.
func (n *Node) Start(ctx context.Context) {
	n.repl.Start(ctx)
	if n.hbInterval > 0 {
		for owner := range n.replicas {
			n.wg.Add(1)
			go func(owner string) {
				defer n.wg.Done()
				n.heartbeat(ctx, owner)
			}(owner)
		}
	}
}

// Close stops the backend's streaming jobs and releases every store.
func (n *Node) Close() error {
	n.backend.Close()
	n.repl.Stop()
	n.wg.Wait()
	err := n.primary.Close()
	for _, owner := range sortedKeys(n.replicas) {
		if cerr := n.replicas[owner].Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

func sortedKeys(m map[string]*store.DurableStore) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// heartbeat polls one owner this node follows; after hbFailures
// consecutive misses the owner is declared dead and this node promotes.
func (n *Node) heartbeat(ctx context.Context, owner string) {
	misses := 0
	for {
		if n.clock.Sleep(ctx, n.hbInterval) != nil {
			return
		}
		if n.pingOwner(ctx, owner) {
			misses = 0
			continue
		}
		misses++
		if misses < n.hbFailures {
			continue
		}
		n.Promote(owner)
		return // dead owners stay dead; rejoin is an operator action
	}
}

// pingOwner probes an owner's health endpoint.
func (n *Node) pingOwner(ctx context.Context, owner string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.peers[owner]+"/api/health", nil)
	if err != nil {
		return false
	}
	resp, err := n.httpClient.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode < 500
}

// Promote handles the death of a node. Every caller (heartbeat, drill,
// operator endpoint) converges on the same steps: mark the node dead in
// the topology, and — when this node is the promotion target and holds the
// dead node's replica — absorb the replica store into the primary so the
// dead node's signatures are served here with their exact replicated
// bytes. Absorption is idempotent and chunked.
func (n *Node) Promote(dead string) {
	target, changed := n.topo.MarkDead(dead)
	if changed {
		n.ownershipMoves.Inc()
		n.logf("fleet: node %s marked dead; keys route to %s", dead, target)
	}
	// If the dead node was one of our followers, stop waiting on its acks:
	// ingest must not block on a peer that can never answer.
	n.repl.DropPeer(dead)
	if target != n.id {
		return
	}
	rs, ok := n.replicas[dead]
	if !ok {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted[dead] {
		return
	}
	// The replay is a deliberate trace origin: a promote_replay root span
	// with each absorb chunk's WAL append as a child, so rockmon -trace can
	// reconstruct what failover actually replayed and how long it took.
	//rocklint:allow ctxflow -- promotion is a node-lifetime ownership change: a cancelled heartbeat or request context must NOT abort a half-absorbed shard, so the replay deliberately detaches from the trigger's context
	ctx, sp := n.backend.Tracer().StartRoot(context.Background(), "promote_replay", "fleet")
	sp.Annotate("absorbing %s", dead)
	status := "ok"
	defer func() { sp.Finish(status) }()
	export := rs.Export()
	total := len(export)
	for len(export) > 0 {
		c := promoteChunk
		if c > len(export) {
			c = len(export)
		}
		//rocklint:allow deadlockcycle -- promotion absorb is deliberately exclusive: n.mu serializes Promote so a dead owner's replica is folded in exactly once, and the chunked fsync-bounded batches keep each critical section short
		if err := n.primary.Commit(ctx, export[:c]); err != nil {
			n.logf("fleet: absorb of %s halted: %v", dead, err)
			status = "error"
			return // not marked promoted; the next Promote retries
		}
		export = export[c:]
	}
	n.promoted[dead] = true
	sp.Annotate("%d object(s)", total)
	n.logf("fleet: absorbed %d object(s) from dead node %s", total, dead)
	n.flight.Eventf(flightrec.LevelWarn, "fleet", sp.Context(),
		"promoted over dead node %s (%d object(s) absorbed)", dead, total)
	if path, err := n.flight.Dump("promotion"); err != nil {
		n.logf("fleet: flight-recorder dump failed: %v", err)
	} else if path != "" {
		n.logf("fleet: promotion over %s; flight recorder dumped to %s", dead, path)
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.logger != nil {
		n.logger.Printf(format, args...)
	}
}

// replicateResponse is the fleet endpoints' acknowledgement body.
type replicateResponse struct {
	Seq uint64 `json:"seq"`
}

// statusResponse is GET /api/fleet/status.
type statusResponse struct {
	ID       string            `json:"id"`
	Seq      uint64            `json:"seq"`
	Lag      map[string]uint64 `json:"lag,omitempty"`
	Promoted []string          `json:"promoted,omitempty"`
}

// Handler returns the node's full HTTP surface: the backend routes plus
// the fleet peer endpoints.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", n.backend.Handler())
	mux.HandleFunc("POST /api/fleet/replicate", n.peerAuth(n.handleReplicate))
	mux.HandleFunc("PUT /api/fleet/snapshot", n.peerAuth(n.handleSnapshot))
	mux.HandleFunc("POST /api/fleet/promote", n.peerAuth(n.handlePromote))
	mux.HandleFunc("GET /api/fleet/status", n.handleStatus)
	return mux
}

// peerAuth gates fleet endpoints on the cluster secret.
func (n *Node) peerAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(backend.ClusterTokenHeader) != n.clusterSecret {
			http.Error(w, "cluster token rejected", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

// replicaFor resolves the ?from= owner to its replica store.
func (n *Node) replicaFor(w http.ResponseWriter, r *http.Request) (*store.DurableStore, bool) {
	from := r.URL.Query().Get("from")
	rs, ok := n.replicas[from]
	if !ok {
		http.Error(w, fmt.Sprintf("fleet: node %s does not follow %q", n.id, from), http.StatusNotFound)
		return nil, false
	}
	return rs, true
}

// handleReplicate applies shipped WAL frames to the owner's replica store.
// A sequence gap answers 409 with the replica's current sequence so the
// owner falls back to snapshot catch-up. An inbound trace identity (set by
// the owner's replicate span) parents this node's fleet_replicate span, so
// the apply and its fsync join the owner's cross-node tree.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	rs, ok := n.replicaFor(w, r)
	if !ok {
		return
	}
	frames, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 128<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	inbound, _ := telemetry.ParseTraceHeader(r.Header.Get(telemetry.TraceHeader))
	sp := n.backend.Tracer().StartRemote(inbound, "fleet_replicate", "server")
	ctx := r.Context()
	if sp != nil {
		ctx = telemetry.WithSpan(ctx, sp.Context())
	}
	seq, err := rs.ApplyReplicated(ctx, frames)
	if err != nil {
		sp.Finish("error")
	} else {
		sp.Finish("ok")
	}
	if err != nil {
		if errors.Is(err, store.ErrReplicaGap) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(replicateResponse{Seq: seq})
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, replicateResponse{Seq: seq})
}

// handleSnapshot installs a full snapshot image on the owner's replica.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	rs, ok := n.replicaFor(w, r)
	if !ok {
		return
	}
	image, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 512<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	seq, err := rs.InstallSnapshot(image)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, replicateResponse{Seq: seq})
}

// handlePromote lets drills and operators declare a node dead.
func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	dead := r.URL.Query().Get("node")
	if dead == "" {
		http.Error(w, "node required", http.StatusBadRequest)
		return
	}
	n.Promote(dead)
	n.handleStatus(w, r)
}

// handleStatus reports the node's replication position.
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	promoted := make([]string, 0, len(n.promoted))
	for id := range n.promoted {
		promoted = append(promoted, id)
	}
	n.mu.Unlock()
	sort.Strings(promoted)
	writeJSON(w, statusResponse{
		ID:       n.id,
		Seq:      n.primary.Seq(),
		Lag:      n.repl.Lag(),
		Promoted: promoted,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// httpPeer ships frames and snapshots to a follower over the fleet HTTP
// endpoints.
type httpPeer struct {
	client *http.Client
	base   string
	from   string
	secret string
}

// Replicate implements Peer over POST /api/fleet/replicate.
func (p *httpPeer) Replicate(ctx context.Context, frames []byte) (uint64, error) {
	return p.post(ctx, http.MethodPost, "/api/fleet/replicate", frames)
}

// InstallSnapshot implements Peer over PUT /api/fleet/snapshot.
func (p *httpPeer) InstallSnapshot(ctx context.Context, image []byte) (uint64, error) {
	return p.post(ctx, http.MethodPut, "/api/fleet/snapshot", image)
}

func (p *httpPeer) post(ctx context.Context, method, path string, body []byte) (uint64, error) {
	u := p.base + path + "?from=" + url.QueryEscape(p.from)
	req, err := http.NewRequestWithContext(ctx, method, u, strings.NewReader(string(body)))
	if err != nil {
		return 0, err
	}
	req.Header.Set(backend.ClusterTokenHeader, p.secret)
	if sc := telemetry.SpanFrom(ctx); sc.Valid() {
		req.Header.Set(telemetry.TraceHeader, sc.String())
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	var ack replicateResponse
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return 0, fmt.Errorf("fleet: decode replicate ack: %w", err)
		}
		return ack.Seq, nil
	case http.StatusConflict:
		json.NewDecoder(resp.Body).Decode(&ack)
		return ack.Seq, ErrPeerGap
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("fleet: peer %s%s: %s: %s", p.base, path, resp.Status, strings.TrimSpace(string(msg)))
	}
}

// StorePeer adapts a local durable store as a Peer — the in-process
// transport unit tests and single-process fleets use.
type StorePeer struct {
	Store *store.DurableStore
}

// Replicate implements Peer.
func (p StorePeer) Replicate(ctx context.Context, frames []byte) (uint64, error) {
	seq, err := p.Store.ApplyReplicated(ctx, frames)
	if errors.Is(err, store.ErrReplicaGap) {
		return seq, fmt.Errorf("%w: %v", ErrPeerGap, err)
	}
	return seq, err
}

// InstallSnapshot implements Peer.
func (p StorePeer) InstallSnapshot(ctx context.Context, image []byte) (uint64, error) {
	return p.Store.InstallSnapshot(image)
}
