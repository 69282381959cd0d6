// Package backend implements the Autotune Backend of Section 5 (Figure 7)
// over net/http: it issues scoped access tokens (the SAS-URL analogue)
// after authenticating callers against the cluster token service, serves
// model files and the pre-computed app_cache, ingests Spark event files,
// and hosts the two streaming jobs that close the loop — the Model Updater,
// which retrains a query signature's surrogate whenever new events arrive,
// and the App Cache Generator, which runs the Algorithm 2 joint optimizer
// after an application completes.
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
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/applevel"
	"github.com/rockhopper-db/rockhopper/internal/eventlog"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/flightrec"
	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/monitor"
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

// MaxObjectBytes is the largest object PUT /api/object accepts, and so the
// largest GET /api/object can return to a client.
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

// ObjectStore is the storage surface the backend consumes. *store.Store is
// the production implementation; resilience tests substitute a fault-
// injecting wrapper (internal/resilience/faultinject). Commit is the only
// mutation: a group of writes that lands all-or-nothing under the trace
// identity ctx carries. Token-gated writes Verify first.
type ObjectStore interface {
	Sign(prefix string, perm store.Permission, ttl time.Duration) string
	Verify(tok, p string, perm store.Permission) error
	Get(tok, p string) ([]byte, error)
	GetInternal(p string) ([]byte, error)
	List(prefix string) []string
	Commit(ctx context.Context, entries []store.Entry) error
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
// but the client must NOT treat the request as acknowledged — it retries,
// and a duplicate event file is harmless noise the retrain tolerates.
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

	// driftMu guards the per-model drift detectors and the count of
	// training traces each has already consumed. The detectors are fed
	// only from the updater goroutine; the mutex covers SetMetrics-time
	// resets and test inspection.
	driftMu  sync.Mutex
	drift    map[string]*monitor.DriftDetector
	driftFed map[string]int

	// seqMu guards seqs, the per-job event-file sequence allocator. Reading
	// len(Store.List(...)) per request would race: two concurrent ingests
	// could observe the same length and overwrite each other's event file.
	seqMu sync.Mutex
	seqs  map[string]int

	// Model Updater scheduling. pending counts admitted-but-unprocessed
	// updates (reserved at admission, released when the retrain finishes) so
	// tests and shutdown can Flush deterministically; peakPending is its
	// high-water mark, pinning the atomic-admission invariant in tests. The
	// jobs themselves live in per-tenant sub-queues drained weighted
	// round-robin — there is no channel, so enqueue cannot race Close into a
	// send-on-closed panic. cond signals both "work available" (the updater
	// waits on it) and "a job finished" (Flush waits on it).
	mu          sync.Mutex
	cond        *sync.Cond
	queue       fairQueue
	pending     int
	peakPending int
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
		drift:          make(map[string]*monitor.DriftDetector),
		driftFed:       make(map[string]int),
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

// FlightRecorder returns the installed recorder (possibly nil).
func (s *Server) FlightRecorder() *flightrec.Recorder { return s.flightRec }

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
	mux.HandleFunc("PUT /api/object", s.instrument("put_object", s.handlePutObject))
	mux.HandleFunc("POST /api/events", s.instrument("events", s.handleEvents))
	mux.HandleFunc("POST /api/events/batch", s.instrument("events_batch", s.handleEventBatch))
	mux.HandleFunc("POST /api/eventlog", s.instrument("eventlog", s.handleEventLog))
	mux.HandleFunc("GET /api/appcache", s.instrument("get_appcache", s.handleGetAppCache))
	mux.HandleFunc("POST /api/appcache", s.instrument("compute_appcache", s.handleComputeAppCache))
	mux.HandleFunc("GET /api/health", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/trace", s.handleTrace)
	mux.HandleFunc("GET /api/flightrec", s.handleFlightRec)
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

func (s *Server) handlePutObject(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query().Get("path")
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxObjectBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.Store.Verify(r.Header.Get(SASTokenHeader), p, store.PermWrite); err != nil {
		http.Error(w, err.Error(), storeStatus(err))
		return
	}
	if err := s.Store.Commit(r.Context(), []store.Entry{{Path: p, Data: blob}}); err != nil {
		http.Error(w, err.Error(), storeStatus(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// validSegment reports whether v may stand as one segment of a store key.
// Users and signatures are spliced into index/<user>/<sig>/… and
// models/<user>/<sig>.model: a '/' would alias another tenant's keys, and
// "." or ".." would be cleaned away by path.Join and escape the folder.
func validSegment(v string) bool {
	return v != "" && v != "." && v != ".." && !strings.Contains(v, "/")
}

// handleEvents ingests a JSON-lines batch of execution traces for one query
// signature, persists it as an event file, and enqueues a model update —
// the Event Hub trigger of Figure 7.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, signature, jobID := q.Get("user"), q.Get("signature"), q.Get("job_id")
	if !validSegment(user) || !validSegment(signature) || jobID == "" {
		http.Error(w, "user, signature (one path segment each) and job_id required", http.StatusBadRequest)
		return
	}
	if !s.checkOwnership(w, "events", signature) {
		return
	}
	start := s.clock().Now()
	admitted := 0
	defer func() { s.observeIngest(user, start, admitted) }()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Validate the payload parses before persisting.
	traces, err := flighting.ReadTraces(bytesReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if ok, retry := s.admitTenant(user, float64(len(traces))); !ok {
		s.shedRateLimited(w, "events", user, retry)
		return
	}
	// Reserve the updater slot atomically (see tryAdmit); every error path
	// below must release it.
	if !s.tryAdmit(1) {
		s.shedQueueFull(w, "events", user)
		return
	}
	seq := s.nextSeq(jobID)
	p := store.EventPath(jobID, seq)
	err = s.Store.Verify(r.Header.Get(SASTokenHeader), p, store.PermWrite)
	if err == nil {
		// The event file (the request body, byte for byte) and the index
		// entry the updater finds it by are one commit: a 202 means both are
		// durable, and a crash or store fault leaves both or neither.
		err = s.Store.Commit(r.Context(), []store.Entry{
			{Path: p, Data: body},
			{Path: signatureIndexPath(user, signature, jobID, seq)},
		})
	}
	if err != nil {
		s.releaseAdmit(1)
		http.Error(w, err.Error(), storeStatus(err))
		return
	}
	s.enqueueReserved(updateJob{user: user, signature: signature, trace: telemetry.SpanFrom(r.Context())})
	if !s.awaitReplication(r.Context(), w) {
		return
	}
	admitted = len(traces)
	w.WriteHeader(http.StatusAccepted)
}

// handleEventLog ingests a RAW Spark event log: the Embedding ETL parses
// the listener events, extracts plans/configs/durations, computes workload
// embeddings, and the digested traces are committed exactly as a batch of
// pre-digested events is. The signature is derived from each execution's
// plan, so one log may feed several signatures. Raw event logs are accepted
// on any node — the signatures inside are unknown until the ETL runs, so
// clients cannot route them.
func (s *Server) handleEventLog(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, jobID := q.Get("user"), q.Get("job_id")
	if !validSegment(user) || jobID == "" {
		http.Error(w, "user (one path segment) and job_id required", http.StatusBadRequest)
		return
	}
	start := s.clock().Now()
	admitted := 0
	defer func() { s.observeIngest(user, start, admitted) }()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	runs, err := eventlog.ParseBytes(body, s.Space)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(runs) == 0 {
		http.Error(w, "event log contains no complete executions", http.StatusUnprocessableEntity)
		return
	}
	// Group digested traces by plan signature.
	bySig := map[string][]flighting.Trace{}
	for _, run := range runs {
		sig := sparksim.Signature(run.Plan)
		tr := eventlog.ETL([]eventlog.Run{run}, nil)
		if len(tr) == 0 {
			continue
		}
		tr[0].QueryID = sig
		bySig[sig] = append(bySig[sig], tr[0])
	}
	admitted = s.ingestGroups(w, r, "eventlog", user, jobID, bySig, len(runs))
}

// BatchResponse acknowledges a batched ingest: how many signatures were
// indexed and how many traces they carried.
type BatchResponse struct {
	Signatures int `json:"signatures"`
	Events     int `json:"events"`
}

// handleEventBatch ingests pre-digested traces spanning many query
// signatures in ONE call: the body is the same JSON-lines trace format as
// /api/events, but each trace's queryId names its signature.
func (s *Server) handleEventBatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, jobID := q.Get("user"), q.Get("job_id")
	if !validSegment(user) || jobID == "" {
		http.Error(w, "user (one path segment) and job_id required", http.StatusBadRequest)
		return
	}
	start := s.clock().Now()
	admitted := 0
	defer func() { s.observeIngest(user, start, admitted) }()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	traces, err := flighting.ReadTraces(bytesReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(traces) == 0 {
		http.Error(w, "batch contains no traces", http.StatusUnprocessableEntity)
		return
	}
	bySig := map[string][]flighting.Trace{}
	for i, tr := range traces {
		if !validSegment(tr.QueryID) {
			http.Error(w, fmt.Sprintf("trace %d needs a queryId (the batch signature key) that is one path segment", i), http.StatusBadRequest)
			return
		}
		bySig[tr.QueryID] = append(bySig[tr.QueryID], tr)
	}
	// A batch must be wholly owned by this node: the group commit is
	// all-or-nothing, so a partially misrouted batch is bounced before any
	// admission state is touched (the router partitions batches by owner).
	if s.fleet != nil {
		for _, sig := range sortedKeys(bySig) {
			if !s.checkOwnership(w, "events_batch", sig) {
				return
			}
		}
	}
	admitted = s.ingestGroups(w, r, "events_batch", user, jobID, bySig, len(traces))
}

// sortedKeys returns the signatures of a grouped ingest in stable order.
func sortedKeys(bySig map[string][]flighting.Trace) []string {
	sigs := make([]string, 0, len(bySig))
	for sig := range bySig {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	return sigs
}

// ingestGroups is the tail /api/events/batch and /api/eventlog share. The
// whole request — every signature's event file and index entry — is ONE
// store commit (one WAL append + one fsync), so a 202 means all of it is
// durable and a crash or store fault can never surface part of it. It
// returns the event count to account as admitted: events on a 202, else 0.
func (s *Server) ingestGroups(w http.ResponseWriter, r *http.Request, endpoint, user, jobID string, bySig map[string][]flighting.Trace, events int) int {
	if ok, retry := s.admitTenant(user, float64(events)); !ok {
		s.shedRateLimited(w, endpoint, user, retry)
		return 0
	}
	// Verify the write token against the job's event folder BEFORE burning
	// sequence numbers or updater slots.
	if err := s.Store.Verify(r.Header.Get(SASTokenHeader), "events/"+jobID+"/", store.PermWrite); err != nil {
		http.Error(w, err.Error(), storeStatus(err))
		return 0
	}
	// One updater slot per signature, reserved atomically up front so the
	// request is admitted or shed as a unit. Signatures are walked in stable
	// order so sequence assignment is deterministic for a given body.
	sigs := sortedKeys(bySig)
	if !s.tryAdmit(len(sigs)) {
		s.shedQueueFull(w, endpoint, user)
		return 0
	}
	entries := make([]store.Entry, 0, 2*len(sigs))
	for _, sig := range sigs {
		var buf bytes.Buffer
		if err := flighting.WriteTraces(&buf, bySig[sig]); err != nil {
			s.releaseAdmit(len(sigs))
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return 0
		}
		seq := s.nextSeq(jobID)
		entries = append(entries,
			store.Entry{Path: store.EventPath(jobID, seq), Data: buf.Bytes()},
			store.Entry{Path: signatureIndexPath(user, sig, jobID, seq)},
		)
	}
	if err := s.Store.Commit(r.Context(), entries); err != nil {
		s.releaseAdmit(len(sigs))
		http.Error(w, fmt.Sprintf("store: batch commit not persisted: %v", err), storeStatus(err))
		return 0
	}
	for _, sig := range sigs {
		s.enqueueReserved(updateJob{user: user, signature: sig, trace: telemetry.SpanFrom(r.Context())})
	}
	if !s.awaitReplication(r.Context(), w) {
		return 0
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	if err := json.NewEncoder(w).Encode(BatchResponse{Signatures: len(sigs), Events: events}); err != nil {
		s.logf("backend: encode batch response: %v", err)
	}
	return events
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

// enqueueReserved hands an admitted job to the fair queue. The caller has
// already reserved its updater slot via tryAdmit; the push happens entirely
// under s.mu, so a racing Close either sees the job (and drains it) or has
// already flipped closed — in which case the job is dropped here and its
// reservation released. The old implementation released the lock and then
// sent on a channel Close could concurrently close; that panic window is
// structurally gone.
func (s *Server) enqueueReserved(j updateJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.pending--
		s.cond.Broadcast()
		return
	}
	s.queue.push(j.user, j)
	s.cond.Broadcast()
}

// modelUpdater is the streaming Model Updater: it retrains the signature's
// surrogate from all of its event files and stores the serialized model.
// Jobs come off the per-tenant fair queue, so one tenant's backlog cannot
// starve another's retrains.
func (s *Server) modelUpdater() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.size == 0 && !s.closed {
			s.cond.Wait()
		}
		j, ok := s.queue.pop()
		s.mu.Unlock()
		if !ok {
			return // closed and drained
		}
		s.retrain(j)
		s.mu.Lock()
		s.pending--
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

func (s *Server) retrain(j updateJob) {
	user, signature := j.user, j.signature
	started := s.clock().Now()
	// The retrain span parents under the ingest request's server span
	// (carried across the queue in j.trace), so a trace's causal tree shows
	// the model update the ingest triggered, with its duration.
	sp := s.tele.tracer.StartRemote(j.trace, "retrain", "tuner")
	sp.Annotate("%s/%s", user, signature)
	status := "ok"
	// The span says which phase of a slow retrain was slow: reading the
	// history back, fitting it, or committing the model. Phases an early
	// return never reached read zero.
	var rows int
	var read, fit, commit time.Duration
	defer func() {
		if rows > 0 {
			sp.Annotate("rows=%d read=%.2fms fit=%.2fms commit=%.2fms", rows, read.Seconds()*1e3, fit.Seconds()*1e3, commit.Seconds()*1e3)
		}
		sp.Finish(status)
	}()
	var traces []flighting.Trace
	prefix := fmt.Sprintf("index/%s/%s/", user, signature)
	for _, idx := range s.Store.List(prefix) {
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
		ts, err := flighting.ReadTraces(bytesReader(blob))
		if err != nil {
			s.logf("backend: corrupt event file for index entry %q: %v", idx, err)
			continue
		}
		traces = append(traces, ts...)
	}
	if len(traces) < 4 {
		status = "skipped"
		return // not enough data yet; the client keeps using the baseline
	}
	rows, read = len(traces), s.clock().Now().Sub(started)
	// Score the serving model's residuals before replacing it.
	s.observeDrift(j.trace, user, signature, traces)
	fitStarted := s.clock().Now()
	x := make([][]float64, len(traces))
	y := make([]float64, len(traces))
	for i, t := range traces {
		x[i] = tuners.ConfigFeatures(s.Space, nil, t.Config, t.DataSize)
		y[i] = math.Log1p(t.TimeMs)
	}
	best := math.Inf(1)
	for _, t := range traces {
		best = math.Min(best, t.TimeMs)
	}
	kr := ml.NewKernelRidge()
	kr.Alpha = 0.3
	err := kr.Fit(x, y)
	fit = s.clock().Now().Sub(fitStarted)
	if err != nil {
		status = "error"
		s.logfCtx(j.trace, "backend: retrain %s/%s: %v", user, signature, err)
		return
	}
	blob, err := ml.Marshal(kr)
	if err != nil {
		status = "error"
		s.logfCtx(j.trace, "backend: marshal %s/%s: %v", user, signature, err)
		return
	}
	record, err := json.Marshal(bestCostRecord{User: user, Signature: signature, BestMs: best})
	if err != nil {
		status = "error"
		s.logfCtx(j.trace, "backend: encode best-cost record %s/%s: %v", user, signature, err)
		return
	}
	// The model and its best-cost record are one commit (one WAL record, one
	// replicated frame). The updater runs outside any request: the write is
	// untraced.
	commitStarted := s.clock().Now()
	err = s.Store.Commit(context.Background(), []store.Entry{
		{Path: store.ModelPath(user, signature), Data: blob},
		{Path: bestCostPath(user, signature), Data: record},
	})
	done := s.clock().Now()
	commit, elapsed := done.Sub(commitStarted), done.Sub(started)
	if err != nil {
		// A retrain whose model is not durable is not done.
		status = "error"
		s.logfCtx(j.trace, "backend: persist retrain %s/%s: %v", user, signature, err)
		return
	}
	s.tele.retrains.Inc()
	s.tele.retrainSeconds.Observe(elapsed.Seconds())
	//rocklint:allow metriccardinality -- best-cost gauge is partitioned by the model store's own user/signature set; DESIGN.md §8 blesses these labels on model gauges
	s.tele.bestCost.With(user, signature).Set(best)
	s.logfCtx(j.trace, "backend: retrained %s/%s on %d traces", user, signature, len(traces))
}

// bestCostRecord is the durable form of one rockhopper_model_best_cost_ms
// gauge sample, persisted so a restarted daemon re-registers the series
// instead of showing a false improvement to zero. The identifying fields
// live in the blob as well as the path, so restore never parses a key.
type bestCostRecord struct {
	User      string  `json:"user"`
	Signature string  `json:"signature"`
	BestMs    float64 `json:"best_ms"`
}

// bestCostPrefix is the store folder holding persisted best-cost records.
// It is outside "events/", so the retention sweep never reaps it.
const bestCostPrefix = "meta/bestcost/"

func bestCostPath(user, signature string) string {
	return bestCostPrefix + user + "/" + signature
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

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }
