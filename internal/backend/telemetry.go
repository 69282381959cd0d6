package backend

import (
	"net/http"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// DefaultTraceRingSpans bounds the in-memory span buffer behind
// GET /api/trace when Server.TraceRingSpans is unset (autotuned -trace-ring
// overrides it).
const DefaultTraceRingSpans = 256

// backendTelemetry is the server's bound instrument set. It is built once in
// New (against a per-server registry) or rebound by SetMetrics before
// serving; handlers read it without locks.
type backendTelemetry struct {
	reg      *telemetry.Registry
	requests *telemetry.CounterVec   // {endpoint, code class}
	timeouts *telemetry.CounterVec   // {endpoint}
	latency  *telemetry.HistogramVec // {endpoint}
	shed     *telemetry.CounterVec   // {endpoint}

	retrains       telemetry.Counter
	retrainSeconds telemetry.Histogram
	misrouted      *telemetry.CounterVec // {endpoint}: 421 bounces to the owning shard

	// Per-tenant ingest series. The tenant label is bounded by
	// maxTenantLabelValues (overflow lumps into "other") per the §8
	// cardinality rule.
	tenantAdmitted      *telemetry.CounterVec   // {tenant}
	tenantShed          *telemetry.CounterVec   // {tenant, reason}
	tenantIngestSeconds *telemetry.HistogramVec // {tenant}

	// driftTrips counts signatures whose drift detector tripped. Which ones,
	// and their scores, GET /api/explain says.
	driftTrips telemetry.Counter

	spans  *telemetry.SpanRing
	tracer *telemetry.Tracer
}

// SetMetrics rebinds the server's instruments onto reg — daemons pass
// telemetry.Default() so /metrics aggregates every component; tests pass a
// fresh registry to assert in isolation. Must be called before the handler
// serves traffic: rebinding resets nothing on the old registry, it simply
// stops writing there.
func (s *Server) SetMetrics(reg *telemetry.Registry) { s.bindTelemetry(reg) }

// Metrics returns the registry the server currently publishes to.
func (s *Server) Metrics() *telemetry.Registry { return s.tele.reg }

func (s *Server) bindTelemetry(reg *telemetry.Registry) {
	t := &backendTelemetry{
		reg: reg,
		requests: reg.Counter("rockhopper_http_requests_total",
			"HTTP requests by endpoint and status code class.", "endpoint", "code"),
		timeouts: reg.Counter("rockhopper_http_timeouts_total",
			"Requests whose deadline expired while handling.", "endpoint"),
		latency: reg.Histogram("rockhopper_http_request_duration_seconds",
			"Request handling latency in seconds.", nil, "endpoint"),
		shed: reg.Counter("rockhopper_shed_total",
			"Ingest requests shed with 429 (updater queue saturated or tenant rate limit).", "endpoint"),
		tenantAdmitted: reg.Counter("rockhopper_tenant_admitted_total",
			"Events accepted for ingest, by tenant (label bounded; overflow is \"other\").", "tenant"),
		tenantShed: reg.Counter("rockhopper_tenant_shed_total",
			"Ingest requests shed with 429, by tenant and reason (rate_limit or queue_full).", "tenant", "reason"),
		tenantIngestSeconds: reg.Histogram("rockhopper_tenant_ingest_seconds",
			"Ingest request handling latency in seconds, by tenant.", nil, "tenant"),
		retrains: reg.Counter("rockhopper_updater_retrains_total",
			"Model Updater retrain passes that produced a model.").With(),
		retrainSeconds: reg.Histogram("rockhopper_updater_retrain_seconds",
			"Model retrain duration in seconds.", nil).With(),
		misrouted: reg.Counter("rockhopper_fleet_misrouted_total",
			"Requests bounced with 421 because another node owns the signature.", "endpoint"),
		driftTrips: reg.Counter("rockhopper_signature_drift_trips_total",
			"Signatures whose Page-Hinkley drift detector tripped (it latches); GET /api/explain names them.").With(),
	}
	ringSize := s.TraceRingSpans
	if ringSize <= 0 {
		ringSize = DefaultTraceRingSpans
	}
	// Derive the span-ID stream from the seed AND the node identity: fleet
	// nodes are built from one shared Seed, and two nodes minting the same
	// ID sequence would collide in trace assembly (dedup by span ID eats
	// the follower's spans). Rebinding re-derives the stream; SetMetrics is
	// documented pre-traffic, so no live trace straddles the reset.
	h := uint64(14695981039346656037)
	for _, b := range []byte(s.NodeName) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	s.traceRNG = stats.NewRNG(s.traceSeed ^ h)
	t.spans = telemetry.NewSpanRing(ringSize)
	evicted := reg.Counter("rockhopper_trace_spans_evicted_total",
		"Spans overwritten in the trace ring before a gather read them — raise -trace-ring if this grows under fleet load.").With()
	t.spans.OnEvict(evicted.Inc)
	t.tracer = telemetry.NewTracer(t.spans, s.NodeName,
		func() time.Time { return s.clock().Now() }, s.traceIDs())
	reg.GaugeFunc("rockhopper_updater_queue_depth",
		"Model Updater jobs enqueued but not yet processed.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.pending)
		})
	st := s.Store
	reg.GaugeFunc("rockhopper_store_objects",
		"Objects resident in the backend object store.", func() float64 {
			return float64(st.Len())
		})
	s.tele = t
}

// codeClass buckets an HTTP status for the requests counter — classes keep
// the label set closed (cardinality rule, DESIGN.md §8).
func codeClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// handleMetrics serves the bound registry in Prometheus text format. Like
// /api/health it is unauthenticated: scrapers don't hold cluster secrets.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.tele.reg.Handler().ServeHTTP(w, r)
}

// handleTrace serves the span ring, oldest first — the poor man's trace
// viewer for correlating a client call with backend work. ?trace=<16 hex>
// narrows the dump to one trace's fragments, which is what rockmon -trace
// gathers from every node before assembling the cross-node tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	spans := s.tele.spans.Snapshot()
	if want := r.URL.Query().Get("trace"); want != "" {
		filtered := make([]telemetry.Span, 0, len(spans))
		for _, sp := range spans {
			if sp.TraceID == want {
				filtered = append(filtered, sp)
			}
		}
		spans = filtered
	}
	if spans == nil {
		spans = []telemetry.Span{}
	}
	writeJSON(w, spans)
}

// Tracer exposes the server's span tracer so co-located components (the
// durable store's WAL path, the fleet replicator and promotion replay)
// record into the same ring the daemon serves at /api/trace.
func (s *Server) Tracer() *telemetry.Tracer { return s.tele.tracer }

func (s *Server) maxPending() int {
	if s.MaxPendingUpdates > 0 {
		return s.MaxPendingUpdates
	}
	return DefaultMaxPendingUpdates
}
