// Package backend implements the Autotune Backend of Section 5 (Figure 7)
// over net/http: it issues scoped access tokens (the SAS-URL analogue)
// after authenticating callers against the cluster token service, serves
// model files and the pre-computed app_cache, ingests the execution traces
// clients digest from Spark event logs, and hosts the two streaming jobs
// that close the loop — the Model Updater, which retrains a query
// signature's surrogate whenever new events arrive, and the App Cache
// Generator, which runs the Algorithm 2 joint optimizer after an
// application completes.
package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/applevel"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/flightrec"
	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
)

// ClusterTokenHeader carries the Spark-cluster credential; the Autotune
// Manager validates it against the Fabric token service (simulated by a
// shared secret).
const ClusterTokenHeader = "X-Cluster-Token"

// MaxObjectBytes is the largest object GET /api/object returns to a
// client.
const MaxObjectBytes = 64 << 20

// SASTokenHeader carries a store-scoped access token on object requests.
const SASTokenHeader = "X-Sas-Token"

// TokenRequest asks for a scoped store token.
type TokenRequest struct {
	Prefix string           `json:"prefix"`
	Perm   store.Permission `json:"perm"`
}

// TokenResponse returns the signed token.
type TokenResponse struct {
	Token string `json:"token"`
	// TTLSeconds informs the client's refresh schedule.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// QueryHistory is one query's tuning state shipped to the App Cache
// Generator after an application run.
type QueryHistory struct {
	ID           string                 `json:"id"`
	Centroid     sparksim.Config        `json:"centroid"`
	Observations []sparksim.Observation `json:"observations"`
}

// AppCacheRequest asks the backend to recompute an artifact's app-level
// configuration from the run's per-query histories.
type AppCacheRequest struct {
	ArtifactID string          `json:"artifact_id"`
	Current    sparksim.Config `json:"current"`
	Queries    []QueryHistory  `json:"queries"`
}

// ObjectStore is the storage surface the backend consumes. A daemon with a
// data directory, and every fleet node, runs on *store.DurableStore; without
// one it runs on the in-memory *store.Store. Resilience tests substitute a
// fault-injecting wrapper (internal/resilience/faultinject). Commit is the only
// mutation: a group of writes that lands all-or-nothing under the trace
// identity ctx carries. Token-gated writes Verify first. Len feeds
// rockhopper_store_objects; Err is the store's latched failure (nil while
// it accepts commits), which GET /api/health reports as "down".
type ObjectStore interface {
	Sign(prefix string, perm store.Permission, ttl time.Duration) string
	Verify(tok, p string, perm store.Permission) error
	Get(tok, p string) ([]byte, error)
	GetInternal(p string) ([]byte, error)
	List(prefix string) []string
	Commit(ctx context.Context, entries []store.Entry) error
	Len() int
	Err() error
}

// Both the in-memory store and the snapshot+WAL durable store satisfy the
// storage surface; autotuned picks one via -data-dir.
var (
	_ ObjectStore = (*store.Store)(nil)
	_ ObjectStore = (*store.DurableStore)(nil)
)

// FleetHooks is the sharding surface a fleet node installs on its backend
// with SetFleet. The backend stays ignorant of rings and replication
// protocols; it only needs two facts per request: "is this signature mine?"
// (misrouted requests are bounced with 421 + the owner's address so the
// client re-routes) and "is this commit on every follower yet?" (the 202
// may not outrun replication, or an acknowledged event could die with this
// node).
type FleetHooks interface {
	// OwnerOf resolves a signature to the address of its current live
	// owner; self reports whether this node is that owner.
	OwnerOf(signature string) (owner string, self bool)
	// AwaitReplication blocks until every mutation committed so far is
	// acknowledged by all follower replicas.
	AwaitReplication(ctx context.Context) error
}

// SetFleet installs the sharding hooks. Call before serving traffic; a nil
// hook set (the default) keeps the single-node behavior.
func (s *Server) SetFleet(h FleetHooks) { s.fleet = h }

// MisroutedResponse is the 421 body a misrouted ingest gets back: the
// address of the live owner the client should retry against.
type MisroutedResponse struct {
	Owner     string `json:"owner"`
	Signature string `json:"signature"`
}

// checkOwnership bounces a request for a signature this node does not own.
// It reports whether the request may proceed.
func (s *Server) checkOwnership(w http.ResponseWriter, endpoint, signature string) bool {
	if s.fleet == nil {
		return true
	}
	owner, self := s.fleet.OwnerOf(signature)
	if self {
		return true
	}
	s.tele.misrouted.With(endpoint).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusMisdirectedRequest)
	if err := json.NewEncoder(w).Encode(MisroutedResponse{Owner: owner, Signature: signature}); err != nil {
		s.logf("backend: encode misrouted response: %v", err)
	}
	return false
}

// awaitReplication gates an ingest acknowledgement on follower replicas.
// On failure the commit is locally durable and the model update enqueued,
// but the client must NOT treat the request as acknowledged. Its retry is
// not deduplicated: it stores the run again under a fresh sequence number,
// and the retrain fits it twice (ROADMAP.md item 4).
func (s *Server) awaitReplication(ctx context.Context, w http.ResponseWriter) bool {
	if s.fleet == nil {
		return true
	}
	if err := s.fleet.AwaitReplication(ctx); err != nil {
		http.Error(w, fmt.Sprintf("fleet: replication not confirmed: %v", err), http.StatusServiceUnavailable)
		return false
	}
	return true
}

// Server is the Autotune Backend.
type Server struct {
	Space *sparksim.Space
	Store ObjectStore
	Cache *applevel.Cache
	// ClusterSecret authenticates Spark clusters.
	ClusterSecret string
	// TokenTTL bounds issued tokens.
	TokenTTL time.Duration
	// RequestTimeout bounds each HTTP request's context; <= 0 disables the
	// deadline. New sets DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxPendingUpdates is the Model Updater backlog at which ingest
	// endpoints start shedding with 429 + Retry-After; <= 0 means
	// DefaultMaxPendingUpdates.
	MaxPendingUpdates int
	// TenantRate is each tenant's token-bucket refill in events/second;
	// <= 0 disables per-tenant rate limiting. Set before serving traffic.
	TenantRate float64
	// TenantBurst is the token-bucket capacity; <= 0 means
	// DefaultTenantBurst.
	TenantBurst float64
	// NodeName stamps every span this server records with the fleet node's
	// identity (empty for a standalone daemon). Set before SetMetrics.
	NodeName string
	// TraceRingSpans is the span-ring capacity behind /api/trace; <= 0
	// means DefaultTraceRingSpans. Set before SetMetrics.
	TraceRingSpans int
	// SLOLatency is the per-request latency objective: a slower request is
	// an SLO breach, recorded in the flight recorder and triggering a
	// black-box snapshot. <= 0 disables the check.
	SLOLatency time.Duration
	// Logger receives operational messages; nil silences them.
	Logger *log.Logger

	// clk drives uptime and degraded-window accounting behind
	// GET /api/health; nil means the wall clock. SetClock injects
	// resilience.FakeClock so health reporting is testable.
	clk resilience.Clock

	// metrics is the per-endpoint error accounting behind GET /api/health.
	metrics serverMetrics

	// tele is the bound instrument set (counters, histograms, span ring)
	// behind /metrics and /api/trace. New binds a per-server registry;
	// SetMetrics rebinds (daemons pass telemetry.Default()).
	tele *backendTelemetry

	// fleet is the sharding surface a fleet node installs (SetFleet); nil
	// means single-node behavior. Set before serving traffic.
	fleet FleetHooks

	// rngMu guards rng: handlers run on arbitrary net/http goroutines, and
	// Split advances the parent stream.
	rngMu sync.Mutex
	rng   *stats.RNG

	// traceRNG mints span IDs. It is a dedicated stream derived from
	// traceSeed — never a Split of rng — so enabling or rebinding tracing
	// can never shift the draw sequence the experiment paths depend on.
	// bindTelemetry folds NodeName into the derivation: fleet nodes share
	// one Seed, and span IDs must still be unique across nodes or trace
	// assembly dedups one node's spans as another's.
	traceSeed uint64
	traceRNG  *stats.RNG

	// flightRec is the node's black-box recorder (nil discards). Set via
	// SetFlightRecorder before serving traffic.
	flightRec *flightrec.Recorder

	// sigMu guards signatures, the one per-signature tuning table behind
	// GET /api/explain, keyed user + "\x00" + signature. Only the updater's
	// retrain passes write it; an entry appears after the signature's first
	// pass on this node and nothing of it is persisted.
	sigMu      sync.Mutex
	signatures map[string]*signatureEntry

	// seqMu guards seqs, the per-job event-file sequence allocator. Reading
	// len(Store.List(...)) per request would race: two concurrent ingests
	// could observe the same length and overwrite each other's event file.
	seqMu sync.Mutex
	seqs  map[string]int

	// Model Updater scheduling. pending counts admitted-but-unprocessed
	// updates (reserved at admission, released once each job's work is
	// over) so tests and shutdown can Flush deterministically; peakPending
	// is its high-water mark, pinning the atomic-admission invariant in
	// tests. The jobs themselves live in per-tenant sub-queues drained
	// weighted round-robin — there is no channel, so enqueue cannot race
	// Close into a send-on-closed panic; enqueued counts every job ever
	// enqueued. cond signals both "work available" (the updater waits on
	// it) and "a job finished" (Flush waits on it).
	mu          sync.Mutex
	cond        *sync.Cond
	queue       fairQueue
	pending     int
	peakPending int
	enqueued    uint64
	closed      bool
	wg          sync.WaitGroup

	// Per-tenant ingest admission state (token buckets + bounded metric
	// labels), guarded separately so rate decisions never contend with the
	// updater lock.
	tenantMu     sync.Mutex
	buckets      map[string]*tokenBucket
	tenantLabels map[string]bool
}

type updateJob struct {
	user      string
	signature string
	// trace is the ingest request's identity, carried across the queue so
	// the retrain it triggers logs under the same trace.
	trace telemetry.SpanContext
	// seq numbers the job in enqueue order, from 1; 0 for a job that never
	// passed the queue.
	seq uint64
}

// DefaultRequestTimeout is the per-request deadline New installs.
const DefaultRequestTimeout = 15 * time.Second

// DefaultMaxPendingUpdates is the Model Updater backlog shed threshold when
// MaxPendingUpdates is unset.
const DefaultMaxPendingUpdates = 256

// New constructs a backend server and starts its streaming jobs.
func New(space *sparksim.Space, st ObjectStore, clusterSecret string, seed uint64) *Server {
	s := &Server{
		Space:          space,
		Store:          st,
		Cache:          applevel.NewCache(),
		ClusterSecret:  clusterSecret,
		TokenTTL:       15 * time.Minute,
		RequestTimeout: DefaultRequestTimeout,
		rng:            stats.NewRNG(seed),
		traceSeed:      seed ^ 0x9e3779b97f4a7c15,
		seqs:           make(map[string]int),
		signatures:     make(map[string]*signatureEntry),
	}
	s.bindTelemetry(telemetry.NewRegistry())
	s.metrics.start = s.clock().Now()
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.modelUpdater()
	return s
}

// SetClock injects the server's clock (tests and simulations) and re-bases
// the uptime origin so every health timestamp lives in the injected
// timeline.
func (s *Server) SetClock(c resilience.Clock) {
	s.clk = c
	s.metrics.mu.Lock()
	s.metrics.start = c.Now()
	s.metrics.mu.Unlock()
}

func (s *Server) clock() resilience.Clock {
	if s.clk != nil {
		return s.clk
	}
	return resilience.RealClock{}
}

// traceIDs is the ID stream the server's tracer mints span IDs from.
func (s *Server) traceIDs() *stats.RNG { return s.traceRNG }

// SetFlightRecorder installs the node's black-box recorder (nil discards).
// Set before serving traffic.
func (s *Server) SetFlightRecorder(r *flightrec.Recorder) { s.flightRec = r }

// handleFlightRec serves the live flight-recorder ring, oldest event first,
// in the same Snapshot shape Dump writes — the black box is readable before
// anything has gone wrong, not only from its on-disk dumps.
func (s *Server) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	evs := s.flightRec.Events()
	if evs == nil {
		evs = []flightrec.Event{}
	}
	writeJSON(w, flightrec.Snapshot{Node: s.NodeName, Reason: "live", Events: evs})
}

// Close stops the streaming jobs after draining the queue. Closing flips
// closed under the updater lock and wakes the updater; there is no channel
// to close, so an ingest racing Close either enqueues before the flag (and
// is drained) or observes it and releases its reservation.
func (s *Server) Close() {
	s.Flush()
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Flush blocks until every enqueued model update has been processed.
func (s *Server) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.pending > 0 {
		s.cond.Wait()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logger != nil {
		s.Logger.Printf(format, args...)
	}
}

// logfCtx is logf with the trace identity prefixed, so a client-initiated
// request's log lines are greppable by its X-Rockhopper-Trace value.
func (s *Server) logfCtx(sc telemetry.SpanContext, format string, args ...any) {
	if s.Logger == nil {
		return
	}
	if sc.Valid() {
		s.Logger.Printf("[trace %s] "+format, append([]any{sc}, args...)...)
		return
	}
	s.Logger.Printf(format, args...)
}

// Handler returns the backend's HTTP routes. Every endpoint runs under the
// server's request deadline and feeds the per-endpoint error accounting
// surfaced by GET /api/health.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/token", s.instrument("token", s.handleToken))
	mux.HandleFunc("GET /api/object", s.instrument("get_object", s.handleGetObject))
	mux.HandleFunc("POST /api/events", s.instrument("events", s.handleEvents))
	mux.HandleFunc("POST /api/events/batch", s.instrument("events_batch", s.handleEventBatch))
	mux.HandleFunc("GET /api/appcache", s.instrument("get_appcache", s.handleGetAppCache))
	mux.HandleFunc("POST /api/appcache", s.instrument("compute_appcache", s.handleComputeAppCache))
	mux.HandleFunc("GET /api/health", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/trace", s.handleTrace)
	mux.HandleFunc("GET /api/flightrec", s.handleFlightRec)
	mux.HandleFunc("GET /api/explain", s.handleExplain)
	return mux
}

// authenticated validates the cluster credential.
func (s *Server) authenticated(r *http.Request) bool {
	return r.Header.Get(ClusterTokenHeader) == s.ClusterSecret
}

func (s *Server) handleToken(w http.ResponseWriter, r *http.Request) {
	if !s.authenticated(r) {
		http.Error(w, "cluster token rejected", http.StatusUnauthorized)
		return
	}
	var req TokenRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Prefix == "" || (req.Perm != store.PermRead && req.Perm != store.PermWrite) {
		http.Error(w, "prefix and perm required", http.StatusBadRequest)
		return
	}
	tok := s.Store.Sign(req.Prefix, req.Perm, s.TokenTTL)
	writeJSON(w, TokenResponse{Token: tok, TTLSeconds: s.TokenTTL.Seconds()})
}

func (s *Server) handleGetObject(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query().Get("path")
	blob, err := s.Store.Get(r.Header.Get(SASTokenHeader), p)
	if err != nil {
		http.Error(w, err.Error(), storeStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// Without a declared length net/http sends anything over its 2 KB sniff
	// buffer chunked, and the client cannot size its read.
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Write(blob)
}

// validSegment reports whether v may stand as one segment of a store key.
// Users, signatures and job IDs are spliced into index/<user>/<sig>/…,
// models/<user>/<sig>.model and events/<job>/…: a '/' would alias another
// tenant's keys, and "." or ".." would be cleaned away by path.Join and
// escape the folder, out of the retention sweep's reach.
func validSegment(v string) bool {
	return v != "" && v != "." && v != ".." && !strings.Contains(v, "/")
}

// handleEvents ingests a JSON-lines batch of execution traces for the one
// query signature the request names — the Event Hub trigger of Figure 7.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.ingest(w, r, "events", func(q url.Values, body []byte) (map[string][]flighting.Trace, int, error) {
		signature := q.Get("signature")
		if !validSegment(signature) {
			return nil, 0, errors.New("signature (one path segment) required")
		}
		traces, err := flighting.ParseTraces(body)
		return map[string][]flighting.Trace{signature: traces}, len(traces), err
	})
}

// handleEventBatch ingests pre-digested traces spanning many query
// signatures in ONE call: the body is the same JSON-lines trace format as
// /api/events, but each trace's query_id names its signature.
func (s *Server) handleEventBatch(w http.ResponseWriter, r *http.Request) {
	s.ingest(w, r, "events_batch", func(_ url.Values, body []byte) (map[string][]flighting.Trace, int, error) {
		traces, err := flighting.ParseTraces(body)
		if err != nil {
			return nil, 0, err
		}
		if len(traces) == 0 {
			return nil, 0, unprocessable("batch contains no traces")
		}
		bySig := map[string][]flighting.Trace{}
		for i, tr := range traces {
			if !validSegment(tr.QueryID) {
				return nil, 0, fmt.Errorf("trace %d needs a query_id (the batch signature key) that is one path segment", i)
			}
			bySig[tr.QueryID] = append(bySig[tr.QueryID], tr)
		}
		return bySig, len(traces), nil
	})
}

// unprocessable rejects a well-formed ingest body that carries nothing to
// ingest (422); every other decode error is a 400.
type unprocessable string

func (u unprocessable) Error() string { return string(u) }

// BatchResponse acknowledges an ingest on every ingest endpoint: how many
// signatures were indexed and how many events they carried.
type BatchResponse struct {
	Signatures int `json:"signatures"`
	Events     int `json:"events"`
}

// maxIngestBytes is the largest request body an ingest endpoint reads.
const maxIngestBytes = 64 << 20

// ingest is the one pipeline behind the two ingest endpoints. They differ
// only in decode, which turns the body into traces grouped by the signature
// each trains plus the event count to charge the tenant. A request holding
// any signature this node does not own is bounced with 421 before
// admission: the commit is all-or-nothing, and the router partitions by
// owner. The whole request — every signature's event file, the canonical
// flighting.WriteTraces rendering of its traces, and its index entry — is ONE
// store commit (one WAL append + one fsync), so a 202 means all of it is
// durable and a crash or store fault can never surface part of it.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request, endpoint string,
	decode func(q url.Values, body []byte) (bySig map[string][]flighting.Trace, events int, err error)) {
	q := r.URL.Query()
	user, jobID := q.Get("user"), q.Get("job_id")
	if !validSegment(user) || !validSegment(jobID) {
		http.Error(w, "user and job_id (one path segment each) required", http.StatusBadRequest)
		return
	}
	start := s.clock().Now()
	admitted := 0
	defer func() { s.observeIngest(user, start, admitted) }()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bySig, events, err := decode(q, body)
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(unprocessable)) {
			status = http.StatusUnprocessableEntity
		}
		http.Error(w, err.Error(), status)
		return
	}
	// Signatures are walked in stable order, so the 421 names the same
	// signature and sequence assignment is deterministic for a given body.
	sigs := make([]string, 0, len(bySig))
	for sig := range bySig {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		if !s.checkOwnership(w, endpoint, sig) {
			return
		}
	}
	if ok, retry := s.admitTenant(user, float64(events)); !ok {
		s.shedRateLimited(w, endpoint, user, retry)
		return
	}
	// Verify the write token against the job's event folder BEFORE burning
	// sequence numbers or updater slots.
	if err := s.Store.Verify(r.Header.Get(SASTokenHeader), "events/"+jobID+"/", store.PermWrite); err != nil {
		http.Error(w, err.Error(), storeStatus(err))
		return
	}
	// One updater slot per signature, reserved atomically up front so the
	// request is admitted or shed as a unit; every error path below must
	// release them.
	if !s.tryAdmit(len(sigs)) {
		s.shedQueueFull(w, endpoint, user)
		return
	}
	entries := make([]store.Entry, 0, 2*len(sigs))
	for _, sig := range sigs {
		var buf bytes.Buffer
		if err := flighting.WriteTraces(&buf, bySig[sig]); err != nil {
			s.releaseAdmit(len(sigs))
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		seq := s.nextSeq(jobID)
		entries = append(entries,
			store.Entry{Path: store.EventPath(jobID, seq), Data: buf.Bytes()},
			store.Entry{Path: signatureIndexPath(user, sig, jobID, seq)},
		)
	}
	if err := s.Store.Commit(r.Context(), entries); err != nil {
		s.releaseAdmit(len(sigs))
		http.Error(w, fmt.Sprintf("store: ingest commit not persisted: %v", err), storeStatus(err))
		return
	}
	jobs := make([]updateJob, len(sigs))
	for i, sig := range sigs {
		jobs[i] = updateJob{user: user, signature: sig, trace: telemetry.SpanFrom(r.Context())}
	}
	s.enqueueReserved(jobs...)
	if !s.awaitReplication(r.Context(), w) {
		return
	}
	admitted = events
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	if err := json.NewEncoder(w).Encode(BatchResponse{Signatures: len(sigs), Events: events}); err != nil {
		s.logf("backend: encode ingest response: %v", err)
	}
}

// nextSeq allocates the next event-file sequence number for a job. The
// counter is seeded lazily from the store so a restarted server never reuses
// a number, then advances atomically under seqMu. The seed is one past the
// highest surviving sequence, not the file count: once the retention sweep
// has reaped a job's oldest files the count names a file that still exists.
// It is the maximum of the parsed names because the %06d names stop sorting
// numerically past 999999.
func (s *Server) nextSeq(jobID string) int {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	seq, ok := s.seqs[jobID]
	if !ok {
		for _, p := range s.Store.List("events/" + jobID + "/") {
			if n, ok := store.EventSeq(p); ok && n >= seq {
				seq = n + 1
			}
		}
	}
	s.seqs[jobID] = seq + 1
	return seq
}

func signatureIndexPath(user, signature, jobID string, seq int) string {
	return fmt.Sprintf("index/%s/%s/%s-%06d", user, signature, jobID, seq)
}

// parseIndexEntry splits a "<jobID>-<seq>" index-entry suffix on its last
// '-'. The %06d zero-padding is a sort convenience, not a width contract:
// sequence numbers past 999999 print wider and still round-trip.
func parseIndexEntry(rest string) (jobID string, seq int, err error) {
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 || i == len(rest)-1 {
		return "", 0, fmt.Errorf("no jobID-seq separator in %q", rest)
	}
	seq, err = strconv.Atoi(rest[i+1:])
	if err != nil || seq < 0 {
		return "", 0, fmt.Errorf("bad sequence number in %q", rest)
	}
	return rest[:i], seq, nil
}

// enqueueReserved hands admitted jobs to the fair queue, all under one
// acquisition of s.mu, so they are numbered together and the updater's
// next round takes a whole request's signatures. The caller has already
// reserved their updater slots via tryAdmit; a racing Close either sees the
// jobs (and drains them) or has already flipped closed — in which case they
// are dropped here and their reservations released. The old implementation
// released the lock and then sent on a channel Close could concurrently
// close; that panic window is structurally gone.
func (s *Server) enqueueReserved(jobs ...updateJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.pending -= len(jobs)
		s.cond.Broadcast()
		return
	}
	for _, j := range jobs {
		s.enqueued++
		j.seq = s.enqueued
		s.queue.push(j.user, j)
	}
	s.cond.Broadcast()
}

// modelUpdater is the streaming Model Updater. It takes jobs off the
// per-tenant fair queue one at a time, in its weighted round-robin order, so
// one tenant's backlog cannot starve another's retrains, and runs each in
// the current round. A job's updater slot is released as soon as its work is
// over — coalesced into another pass, finished without a model, or its
// model's commit returned — so a long round holds no slot it is done with.
func (s *Server) modelUpdater() {
	defer s.wg.Done()
	r := round{s: s, release: s.releaseAdmit}
	for {
		s.mu.Lock()
		for s.queue.size == 0 && !s.closed && !r.open() {
			s.cond.Wait()
		}
		j, ok := s.queue.pop()
		more, enqueued := s.queue.size > 0, s.enqueued
		s.mu.Unlock()
		switch {
		case ok:
			r.run(j, enqueued)
		case r.open():
			r.commit() // nothing is queued: the round ends
		default:
			return // closed and drained
		}
		// A round makes no syscall between passes, so while jobs wait the
		// updater yields its P here: it is background work, and must not
		// hold a P through a burst of passes while request handlers wait
		// for one. A lone pass has no burst to break up.
		if more {
			runtime.Gosched()
		}
	}
}

// maxCommitBytes is the model bytes at which a round commits early, so one
// WAL record, and the replicated frame that carries it, stays well under a
// follower's shipping buffer (fleet.DefaultMaxBuffer, 4 MiB); past that
// buffer the follower needs a snapshot catch-up.
const maxCommitBytes = 1 << 20

// round is the Model Updater's unit of group commit: consecutive passes of
// one tenant's jobs, all enqueued before the round began, whose models
// share ONE store commit — one WAL record, one fsync, one replicated frame.
// Every pass reads, scores drift on and fits its signature as a lone
// retrain would, so the models are the same. A job that is another
// tenant's, or was enqueued after the round began, commits the round before
// its own pass runs: the fair queue's pop order interleaves tenants, so a
// tenant who floods the queue delays only their own models, and another
// tenant's job that arrives mid-round waits for the pass in progress and at
// most one more turn of the round's tenant, never for the whole round.
// The round also commits once its models reach maxCommitBytes. A failed
// commit fails every pass it carried.
type round struct {
	s *Server
	// release, if set, returns the updater slots of n jobs whose work is
	// over.
	release func(n int)
	user    string
	horizon uint64          // jobs enqueued when the round began
	keys    map[string]bool // signatures with a pass in the round; empty when none is open
	passes  []*pass         // passes waiting for the commit
	size    int             // their model bytes
}

func (r *round) open() bool { return len(r.keys) > 0 }

// run runs j's pass in the round; enqueued is how many jobs had been
// enqueued when j was popped. A job whose signature already has a pass in
// the round is dropped: it was enqueued before the round began, after its
// events were committed, so that pass read them.
func (r *round) run(j updateJob, enqueued uint64) {
	if r.open() && (j.user != r.user || j.seq > r.horizon) {
		r.commit()
	}
	if !r.open() {
		r.user, r.horizon = j.user, enqueued
	}
	key := signatureKey(j.user, j.signature)
	if r.keys[key] {
		r.finished(1)
		return
	}
	if r.keys == nil {
		r.keys = make(map[string]bool)
	}
	r.keys[key] = true
	p := r.s.fitPass(j, key)
	if p == nil {
		r.finished(1)
		return
	}
	r.passes, r.size = append(r.passes, p), r.size+len(p.blob)
	if r.size >= maxCommitBytes {
		r.commit()
	}
}

// commit commits the round's models in one store commit and closes it.
func (r *round) commit() {
	r.s.commitPasses(r.passes)
	r.finished(len(r.passes))
	clear(r.passes) // let the committed models go
	r.passes, r.size = r.passes[:0], 0
	clear(r.keys)
}

func (r *round) finished(n int) {
	if r.release != nil && n > 0 {
		r.release(n)
	}
}

// pass is one signature's retrain within a round: read its history, score
// drift, fit, and wait for the commit that carries its model.
type pass struct {
	job updateJob
	key string
	e   *signatureEntry
	st  SignatureState
	sp  *telemetry.ActiveSpan

	started   time.Time
	read, fit time.Duration
	commit    time.Duration
	round     int // models that shared the commit; 0 before it
	blob      []byte
	best      float64
}

// fitPass runs one signature's pass up to its commit and returns it with
// the model to commit, or finishes it and returns nil when it has none:
// too little history (skipped) or a failed fit (error).
func (s *Server) fitPass(j updateJob, key string) *pass {
	user, signature := j.user, j.signature
	// The retrain span parents under the ingest request's server span
	// (carried across the queue in j.trace), so a trace's causal tree shows
	// the model update the ingest triggered, with its duration.
	p := &pass{job: j, key: key, e: s.signatureEntry(key), started: s.clock().Now()}
	p.sp = s.tele.tracer.StartRemote(j.trace, "retrain", "tuner")
	p.sp.Annotate("%s/%s", user, signature)
	// Every pass, skipped and failed ones too, is recorded in the signature
	// table. The model fields carry over from the last pass that committed
	// one: they describe the model being served.
	p.st = p.e.state
	p.st.Status = "ok"
	prefix := fmt.Sprintf("index/%s/%s/", user, signature)
	entries := s.Store.List(prefix)
	// An event file holds one run's traces, most often one: sized so the
	// history is not regrown as it is read. The retrain reads of each trace
	// only what it fits (flighting.Row), never its embedding.
	rows := make([]flighting.Row, 0, len(entries))
	for _, idx := range entries {
		// index/<user>/<sig>/<jobID>-<seq>. jobID may itself contain '-',
		// and seq outgrows its %06d zero-padding after 999999 event files,
		// so split on the LAST separator instead of a fixed width.
		jobID, seq, err := parseIndexEntry(idx[len(prefix):])
		if err != nil {
			s.logf("backend: skipping malformed index entry %q: %v", idx, err)
			continue
		}
		blob, err := s.Store.GetInternal(store.EventPath(jobID, seq))
		if err != nil {
			s.logf("backend: index entry %q points at unreadable event file: %v", idx, err)
			continue
		}
		if rows, err = flighting.AppendRows(rows, blob); err != nil {
			s.logf("backend: corrupt event file for index entry %q: %v", idx, err)
		}
	}
	p.st.Runs, p.st.Rows = len(entries), len(rows)
	if len(rows) < 4 {
		p.st.Status = "skipped"
		s.finishPass(p) // not enough data yet; the client keeps using the baseline
		return nil
	}
	p.read = s.clock().Now().Sub(p.started)
	// Score the serving model's residuals before replacing it.
	s.observeDrift(j.trace, p.e, user, signature, rows)
	fitStarted := s.clock().Now()
	x := make([][]float64, len(rows))
	y := make([]float64, len(rows))
	p.best = math.Inf(1)
	for i, t := range rows {
		x[i] = tuners.ConfigFeatures(s.Space, nil, t.Config, t.DataSize)
		y[i] = math.Log1p(t.TimeMs)
		p.best = math.Min(p.best, t.TimeMs)
	}
	kr := ml.NewKernelRidge()
	kr.Alpha = 0.3
	err := kr.Fit(x, y)
	p.fit = s.clock().Now().Sub(fitStarted)
	if err == nil {
		p.blob, err = ml.Marshal(kr)
	}
	if err != nil {
		p.st.Status = "error"
		s.logfCtx(j.trace, "backend: retrain %s/%s: %v", user, signature, err)
		s.finishPass(p)
		return nil
	}
	return p
}

// commitPasses commits the passes' models as one store commit and finishes
// every pass: all of them succeed or all fail with it. The updater runs
// outside any request, so the write is untraced.
func (s *Server) commitPasses(ps []*pass) {
	if len(ps) == 0 {
		return
	}
	entries := make([]store.Entry, len(ps))
	for i, p := range ps {
		entries[i] = store.Entry{Path: store.ModelPath(p.job.user, p.job.signature), Data: p.blob}
	}
	started := s.clock().Now()
	err := s.Store.Commit(context.Background(), entries)
	done := s.clock().Now()
	for _, p := range ps {
		p.commit, p.round = done.Sub(started), len(ps)
		user, signature := p.job.user, p.job.signature
		if err != nil {
			// A retrain whose model is not durable is not done.
			p.st.Status = "error"
			s.logfCtx(p.job.trace, "backend: persist retrain %s/%s: %v", user, signature, err)
		} else {
			p.st.ModelBytes, p.st.BestMs, p.st.RetrainedUnixMs = len(p.blob), p.best, done.UnixMilli()
			s.tele.retrains.Inc()
			s.tele.retrainSeconds.Observe(done.Sub(p.started).Seconds())
			s.logfCtx(p.job.trace, "backend: retrained %s/%s on %d traces", user, signature, p.st.Rows)
		}
		s.finishPass(p)
	}
}

// finishPass ends a pass's span and publishes it. The span says which phase
// of a slow retrain was slow — reading the history back, fitting it, or
// committing the model — and how many models shared that commit; phases a
// pass never reached read zero.
func (s *Server) finishPass(p *pass) {
	if p.st.Status != "skipped" {
		p.sp.Annotate("rows=%d read=%.2fms fit=%.2fms commit=%.2fms round=%d",
			p.st.Rows, p.read.Seconds()*1e3, p.fit.Seconds()*1e3, p.commit.Seconds()*1e3, p.round)
	}
	p.sp.Finish(p.st.Status)
	s.publishSignature(p.key, p.e, p.st)
}

func (s *Server) handleGetAppCache(w http.ResponseWriter, r *http.Request) {
	if !s.authenticated(r) {
		http.Error(w, "cluster token rejected", http.StatusUnauthorized)
		return
	}
	artifact := r.URL.Query().Get("artifact_id")
	entry, ok := s.Cache.Get(artifact)
	if !ok {
		http.Error(w, "no cached configuration", http.StatusNotFound)
		return
	}
	writeJSON(w, entry)
}

// handleComputeAppCache is the App Cache Generator: it fits per-query
// surrogates from the submitted histories, runs Algorithm 2, and stores the
// winning app-level configuration under the artifact id.
func (s *Server) handleComputeAppCache(w http.ResponseWriter, r *http.Request) {
	if !s.authenticated(r) {
		http.Error(w, "cluster token rejected", http.StatusUnauthorized)
		return
	}
	var req AppCacheRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.ArtifactID == "" || len(req.Queries) == 0 || len(req.Current) != s.Space.Dim() {
		http.Error(w, "artifact_id, current config, and queries required", http.StatusBadRequest)
		return
	}
	states := make([]applevel.QueryState, 0, len(req.Queries))
	for _, qh := range req.Queries {
		qs, err := applevel.FitQueryState(s.Space, qh.ID, qh.Centroid, qh.Observations)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		states = append(states, qs)
	}
	// The joint optimizer is the backend's heaviest handler work; honor the
	// request deadline before committing to it.
	if err := r.Context().Err(); err != nil {
		http.Error(w, "request deadline exceeded", http.StatusServiceUnavailable)
		return
	}
	s.rngMu.Lock()
	jr := s.rng.Split()
	s.rngMu.Unlock()
	jo := applevel.NewJointOptimizer(s.Space, jr)
	best, err := jo.Optimize(req.Current, states)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	var score float64
	for _, qs := range states {
		score += qs.Predict(best, qs.DataSize)
	}
	s.Cache.Put(req.ArtifactID, best, score)
	entry, _ := s.Cache.Get(req.ArtifactID)
	writeJSON(w, entry)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// storeStatus maps store errors to distinct HTTP statuses so clients can
// tell "does not exist" (404) from "not allowed" (403) from "broken" (500)
// — conflating these is exactly the silent-degradation bug the client's
// model loader used to have.
func storeStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case isTokenErr(err):
		return http.StatusForbidden
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

func isTokenErr(err error) bool {
	return errors.Is(err, store.ErrTokenInvalid) ||
		errors.Is(err, store.ErrTokenExpired) ||
		errors.Is(err, store.ErrTokenScope)
}
