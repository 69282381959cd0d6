// Replicator: WAL log-shipping from a shard owner to its follower peers.
// It taps the durable store's OnAppend hook (copying each frame while the
// store lock is held, shipping outside it), buffers frames per peer, and
// drives one shipping goroutine per peer. Followers enforce the store's
// strict sequence continuity; when a peer reports a gap — it restarted, or
// its buffer here overflowed and frames were dropped — the replicator
// falls back to full snapshot catch-up and then resumes frame shipping.
//
// WaitReplicated is the synchronous-ack primitive: the backend commits
// locally, then blocks the request until every peer has acknowledged the
// commit's sequence number, and only then returns 202. That ordering is
// what makes "zero acknowledged-event loss on owner death" hold by
// construction — an acknowledged event is on every follower's disk.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// ErrPeerGap is returned by a Peer whose follower store needs snapshot
// catch-up before it can accept more frames.
var ErrPeerGap = errors.New("fleet: follower reports a sequence gap")

// ErrReplicatorStopped is returned by WaitReplicated after Stop: the ack
// can no longer be guaranteed, so the caller must fail the request.
var ErrReplicatorStopped = errors.New("fleet: replicator stopped")

// Peer is the transport to one follower replica.
type Peer interface {
	// Replicate ships verbatim WAL frames and returns the follower's
	// post-apply sequence number. A gap must surface as ErrPeerGap.
	Replicate(ctx context.Context, frames []byte) (uint64, error)
	// InstallSnapshot ships a full snapshot image and returns the sequence
	// number the follower now covers.
	InstallSnapshot(ctx context.Context, image []byte) (uint64, error)
}

// Source is the replicator's read-only view of the owner store.
type Source interface {
	// SnapshotImage renders the current state for peer catch-up.
	SnapshotImage() ([]byte, uint64, error)
}

// ReplicatorOptions parameterizes NewReplicator. The zero value is usable:
// real clock, no metrics, DefaultMaxBuffer, DefaultRetryDelay.
type ReplicatorOptions struct {
	// Clock drives retry backoff; nil means the wall clock.
	Clock resilience.Clock
	// Metrics receives the replication instruments; nil discards them.
	Metrics *telemetry.Registry
	// MaxBuffer caps the bytes buffered per peer; past it the buffer is
	// dropped and the peer is queued for snapshot catch-up. 0 means
	// DefaultMaxBuffer.
	MaxBuffer int
	// RetryDelay is the pause after a failed ship before retrying; 0 means
	// DefaultRetryDelay.
	RetryDelay time.Duration
}

// Replication tuning defaults.
const (
	DefaultMaxBuffer  = 4 << 20
	DefaultRetryDelay = 50 * time.Millisecond
)

// peerState is one follower's shipping pipeline.
type peerState struct {
	id   string
	peer Peer

	buf     []byte // pending verbatim frames (guarded by Replicator.mu)
	records int    // frames in buf (guarded by Replicator.mu)
	// sc is the trace identity of the most recent traced request whose
	// frame is in buf (guarded by Replicator.mu). The next ship parents its
	// replicate span under it, so cross-node log shipping stays inside the
	// request's causal tree; untraced frames leave it zero.
	sc       telemetry.SpanContext
	needSnap bool   // frame continuity lost; snapshot before more frames
	snapGen  uint64 // bumped on every continuity loss; guards stale snapshots
	dropped  bool   // peer removed from the ack set; ship goroutine exits
	acked    uint64 // follower's last acknowledged sequence number

	lag      telemetry.Gauge
	shipped  telemetry.Counter
	catchups telemetry.Counter
}

// Replicator ships WAL frames from one owner store to its follower peers.
type Replicator struct {
	src        Source
	clock      resilience.Clock
	maxBuffer  int
	retryDelay time.Duration

	waitSeconds telemetry.Histogram
	tracer      *telemetry.Tracer // guarded by mu; read once per ship pass
	// metricsFor binds one peer's instruments; set once by NewReplicator,
	// closing over the options registry.
	metricsFor func(id string) (telemetry.Gauge, telemetry.Counter, telemetry.Counter)

	mu      sync.Mutex
	cond    *sync.Cond
	peers   []*peerState
	lastSeq uint64 // owner's last observed sequence number
	stopped bool
	started bool
	wg      sync.WaitGroup
}

// NewReplicator returns a replicator for the given owner store. Peers are
// added with AddPeer, then Start launches the shipping pipelines.
func NewReplicator(src Source, opts ReplicatorOptions) *Replicator {
	r := &Replicator{
		src:        src,
		clock:      opts.Clock,
		maxBuffer:  opts.MaxBuffer,
		retryDelay: opts.RetryDelay,
		waitSeconds: opts.Metrics.Histogram("rockhopper_fleet_replication_wait_seconds",
			"Time requests spend blocked on follower acknowledgement.", nil).With(),
	}
	if r.clock == nil {
		r.clock = resilience.RealClock{}
	}
	if r.maxBuffer <= 0 {
		r.maxBuffer = DefaultMaxBuffer
	}
	if r.retryDelay <= 0 {
		r.retryDelay = DefaultRetryDelay
	}
	r.cond = sync.NewCond(&r.mu)
	r.metricsFor = func(id string) (telemetry.Gauge, telemetry.Counter, telemetry.Counter) {
		lagVec := opts.Metrics.Gauge("rockhopper_fleet_replication_lag_records",
			"Owner-to-follower WAL sequence lag, in records.", "peer")
		shippedVec := opts.Metrics.Counter("rockhopper_fleet_replicated_records_total",
			"WAL records acknowledged by each follower.", "peer")
		catchupsVec := opts.Metrics.Counter("rockhopper_fleet_snapshot_catchups_total",
			"Full snapshot catch-ups shipped to each follower.", "peer")
		//rocklint:allow metriccardinality -- peer IDs come from the static fleet config; cardinality equals fleet size
		lag := lagVec.With(id)
		//rocklint:allow metriccardinality -- peer IDs come from the static fleet config; cardinality equals fleet size
		shipped := shippedVec.With(id)
		//rocklint:allow metriccardinality -- peer IDs come from the static fleet config; cardinality equals fleet size
		catchups := catchupsVec.With(id)
		return lag, shipped, catchups
	}
	return r
}

// SetTracer installs the span tracer for the shipping path — the node
// wires the backend's tracer in after both exist. Call before Start.
func (r *Replicator) SetTracer(tr *telemetry.Tracer) {
	r.mu.Lock()
	r.tracer = tr
	r.mu.Unlock()
}

// AddPeer registers a follower before Start. New frames begin buffering
// for the peer immediately; its first ship is a snapshot catch-up, which
// establishes the sequence base the buffered frames extend.
func (r *Replicator) AddPeer(id string, peer Peer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lag, shipped, catchups := r.metricsFor(id)
	r.peers = append(r.peers, &peerState{
		id: id, peer: peer, needSnap: true,
		lag: lag, shipped: shipped, catchups: catchups,
	})
}

// DropPeer removes a follower from the ack set and stops shipping to it —
// called when the follower is declared dead, so the surviving owner's
// ingest stops waiting for acknowledgements that can never arrive.
// Dropping an unknown peer is a no-op.
func (r *Replicator) DropPeer(id string) {
	r.mu.Lock()
	kept := r.peers[:0]
	for _, ps := range r.peers {
		if ps.id == id {
			ps.dropped = true
			ps.buf, ps.records = nil, 0
			ps.lag.Set(0)
			continue
		}
		kept = append(kept, ps)
	}
	r.peers = kept
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Start launches one shipping goroutine per peer. The goroutines exit when
// ctx is cancelled or Stop is called.
func (r *Replicator) Start(ctx context.Context) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.stopped {
		return
	}
	r.started = true
	// cond.Wait cannot watch a context, so cancellation wakes the waiters
	// through a broadcast.
	stop := context.AfterFunc(ctx, func() {
		r.mu.Lock()
		r.stopped = true
		r.mu.Unlock()
		r.cond.Broadcast()
	})
	for _, ps := range r.peers {
		r.wg.Add(1)
		go func(ps *peerState) {
			defer r.wg.Done()
			r.ship(ctx, ps)
		}(ps)
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		<-ctx.Done()
		stop()
	}()
}

// Stop halts shipping and wakes every waiter with ErrReplicatorStopped.
// It does not wait for in-flight peer calls; cancel the Start context to
// bound those.
func (r *Replicator) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Observe is the store's OnAppend tap: it is called under the store lock,
// so it only copies the frame into each peer buffer and signals the
// shipping goroutines. A buffer past MaxBuffer is dropped whole and the
// peer falls back to snapshot catch-up. sc is the appending request's trace
// identity (zero for untraced work); the latest traced one rides with the
// buffer so the ship carries causal parentage across the fleet.
func (r *Replicator) Observe(seq uint64, frame []byte, sc telemetry.SpanContext) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastSeq = seq
	for _, ps := range r.peers {
		if len(ps.buf)+len(frame) > r.maxBuffer {
			ps.buf, ps.records = nil, 0
			ps.needSnap = true
			ps.snapGen++
			ps.sc = telemetry.SpanContext{}
			continue
		}
		ps.buf = append(ps.buf, frame...)
		ps.records++
		if sc.Valid() {
			ps.sc = sc
		}
	}
	r.cond.Broadcast()
}

// peerWait pairs one straggling follower with the replication_wait span
// timing how long a request blocked on its acknowledgement.
type peerWait struct {
	ps *peerState
	sp *telemetry.ActiveSpan
}

// WaitReplicated blocks until every peer has acknowledged seq (or ctx
// expires / the replicator stops). With no peers it returns immediately:
// a single-node fleet degenerates to local durability. A traced ctx gets
// one replication_wait:<peer> child span per follower still short of seq,
// finished the moment that follower's ack covers it — the tree then shows
// which peer the request actually waited on, and for how long.
func (r *Replicator) WaitReplicated(ctx context.Context, seq uint64) error {
	start := r.clock.Now()
	defer func() { r.waitSeconds.Observe(r.clock.Now().Sub(start).Seconds()) }()
	unregister := context.AfterFunc(ctx, r.cond.Broadcast)
	defer unregister()
	r.mu.Lock()
	defer r.mu.Unlock()
	var waits []peerWait
	if sc := telemetry.SpanFrom(ctx); sc.Valid() && r.tracer != nil {
		for _, ps := range r.peers {
			if ps.acked < seq {
				sp := r.tracer.StartRemote(sc, "replication_wait:"+ps.id, "fleet")
				sp.Annotate("seq %d", seq)
				waits = append(waits, peerWait{ps: ps, sp: sp})
			}
		}
	}
	// Finish is idempotent, so settling the stragglers on every exit path
	// (and per-peer as acks land) records each span exactly once.
	settle := func(status string) {
		for _, w := range waits {
			w.sp.Finish(status)
		}
	}
	for {
		for _, w := range waits {
			if w.ps.dropped {
				w.sp.Finish("dropped")
			} else if w.ps.acked >= seq {
				w.sp.Finish("ok")
			}
		}
		if r.minAckedLocked() >= seq {
			settle("ok")
			return nil
		}
		if r.stopped {
			settle("stopped")
			return ErrReplicatorStopped
		}
		if err := ctx.Err(); err != nil {
			settle("timeout")
			return fmt.Errorf("fleet: replication wait for seq %d: %w", seq, err)
		}
		r.cond.Wait()
	}
}

// minAckedLocked returns the lowest peer ack; with no peers every sequence
// counts as replicated.
func (r *Replicator) minAckedLocked() uint64 {
	min := ^uint64(0)
	for _, ps := range r.peers {
		if ps.acked < min {
			min = ps.acked
		}
	}
	return min
}

// Lag returns each peer's current sequence lag in records.
func (r *Replicator) Lag() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.peers))
	for _, ps := range r.peers {
		out[ps.id] = r.lastSeq - min64(ps.acked, r.lastSeq)
	}
	return out
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// ship is one peer's pipeline: wait for work, ship it, record the ack.
func (r *Replicator) ship(ctx context.Context, ps *peerState) {
	for {
		r.mu.Lock()
		for !r.stopped && !ps.dropped && ctx.Err() == nil && len(ps.buf) == 0 && !ps.needSnap {
			r.cond.Wait()
		}
		if r.stopped || ps.dropped || ctx.Err() != nil {
			r.mu.Unlock()
			return
		}
		needSnap := ps.needSnap
		tracer := r.tracer
		var buf []byte
		var records int
		var sc telemetry.SpanContext
		if !needSnap {
			buf, ps.buf = ps.buf, nil
			records, ps.records = ps.records, 0
			sc, ps.sc = ps.sc, telemetry.SpanContext{}
		}
		r.mu.Unlock()

		if needSnap {
			r.shipSnapshot(ctx, ps)
			continue
		}
		// The replicate span parents under the traced request that appended
		// into this batch; its context rides the ship call's trace header so
		// the follower's apply work joins the same tree.
		shipCtx := ctx
		sp := tracer.StartRemote(sc, "replicate:"+ps.id, "fleet")
		if sp != nil {
			sp.Annotate("%d byte(s)", len(buf))
			shipCtx = telemetry.WithSpan(ctx, sp.Context())
		}
		seq, err := ps.peer.Replicate(shipCtx, buf)
		r.mu.Lock()
		switch {
		case err == nil:
			sp.Finish("ok")
			ps.shipped.Add(float64(records))
			r.ackLocked(ps, seq)
			r.mu.Unlock()
		case errors.Is(err, ErrPeerGap):
			sp.Finish("gap")
			ps.needSnap = true
			ps.snapGen++
			r.mu.Unlock()
		default:
			sp.Finish("error")
			// Transient transport failure: put the frames back in front of
			// anything buffered meanwhile and retry after a pause; the trace
			// identity goes back with them unless a newer one arrived.
			ps.buf = append(buf, ps.buf...)
			ps.records += records
			if sc.Valid() && !ps.sc.Valid() {
				ps.sc = sc
			}
			r.mu.Unlock()
			if r.clock.Sleep(ctx, r.retryDelay) != nil {
				return
			}
		}
	}
}

// shipSnapshot performs one snapshot catch-up attempt. The generation
// check guards a race: if an overflow drops frames while this snapshot is
// in flight, the image predates the loss, so needSnap must stay set and a
// fresh snapshot goes out on the next pass.
func (r *Replicator) shipSnapshot(ctx context.Context, ps *peerState) {
	r.mu.Lock()
	gen := ps.snapGen
	r.mu.Unlock()
	image, _, err := r.src.SnapshotImage()
	if err == nil {
		var seq uint64
		if seq, err = ps.peer.InstallSnapshot(ctx, image); err == nil {
			r.mu.Lock()
			if ps.snapGen == gen {
				ps.needSnap = false
			}
			ps.catchups.Inc()
			r.ackLocked(ps, seq)
			r.mu.Unlock()
			return
		}
	}
	if r.clock.Sleep(ctx, r.retryDelay) != nil {
		return
	}
}

// ackLocked records a follower acknowledgement and wakes waiters.
func (r *Replicator) ackLocked(ps *peerState, seq uint64) {
	if seq > ps.acked {
		ps.acked = seq
	}
	ps.lag.Set(float64(r.lastSeq - min64(ps.acked, r.lastSeq)))
	r.cond.Broadcast()
}
