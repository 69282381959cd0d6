package backend

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/flightrec"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// EndpointHealth is one endpoint's request/error accounting.
type EndpointHealth struct {
	// Requests counts every request routed to the endpoint.
	Requests int64 `json:"requests"`
	// ClientErrors counts 4xx responses (caller mistakes, auth).
	ClientErrors int64 `json:"client_errors"`
	// ServerErrors counts 5xx responses.
	ServerErrors int64 `json:"server_errors"`
	// Timeouts counts requests whose deadline expired while handling.
	Timeouts int64 `json:"timeouts"`
	// LastError is the most recent non-2xx response body (truncated).
	LastError string `json:"last_error,omitempty"`
	// LastErrorUnixMs timestamps LastError.
	LastErrorUnixMs int64 `json:"last_error_unix_ms,omitempty"`
}

// HealthReport is the GET /api/health payload: structured per-endpoint
// error accounting plus queue state, so operators (and tests) can see
// degradation instead of inferring it from client-side symptoms.
type HealthReport struct {
	// Status is "ok", "degraded" (a server error in the last minute), or
	// "down" (the durable store has latched a durability failure and
	// refuses mutations).
	Status string `json:"status"`
	// StoreError is the latched durability failure when Status is "down".
	StoreError string `json:"store_error,omitempty"`
	// UptimeSeconds since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// PendingUpdates is the Model Updater queue depth.
	PendingUpdates int `json:"pending_updates"`
	// Endpoints maps endpoint name to its accounting.
	Endpoints map[string]EndpointHealth `json:"endpoints"`
}

// endpointError is the last non-2xx body for one endpoint — operator
// context that has no place in a numeric metrics registry.
type endpointError struct {
	body     string
	atUnixMs int64
}

// serverMetrics keeps only what the telemetry registry cannot: the uptime
// origin and last-error strings. The counts behind /api/health now live in
// the shared registry (rockhopper_http_requests_total and friends) so the
// health report and a /metrics scrape can never disagree.
type serverMetrics struct {
	start time.Time

	mu        sync.Mutex
	lastErr   map[string]*endpointError
	lastErrAt time.Time
}

// observe feeds one finished request into the registry instruments and the
// last-error bookkeeping. A valid sc pins the request's span identity as
// the latency bucket's exemplar, linking the scrape to the trace.
func (s *Server) observe(name string, status int, errBody string, timedOut bool, dur time.Duration, now time.Time, sc telemetry.SpanContext) {
	s.tele.requests.With(name, codeClass(status)).Inc()
	s.tele.latency.With(name).ObserveTraced(dur.Seconds(), sc)
	if timedOut {
		s.tele.timeouts.With(name).Inc()
	}
	if status < 400 {
		return
	}
	if len(errBody) > 256 {
		errBody = errBody[:256]
	}
	m := &s.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lastErr == nil {
		m.lastErr = make(map[string]*endpointError)
	}
	m.lastErr[name] = &endpointError{body: errBody, atUnixMs: now.UnixMilli()}
	if status >= 500 {
		m.lastErrAt = now
	}
}

// healthReport assembles the /api/health payload from the registry series
// plus the retained error strings.
func (s *Server) healthReport(pending int, now time.Time) HealthReport {
	eps := make(map[string]EndpointHealth)
	for _, sv := range s.tele.requests.Series() {
		name, class := sv.Labels[0], sv.Labels[1]
		e := eps[name]
		e.Requests += int64(sv.Value)
		switch class {
		case "4xx":
			e.ClientErrors += int64(sv.Value)
		case "5xx":
			e.ServerErrors += int64(sv.Value)
		}
		eps[name] = e
	}
	for _, sv := range s.tele.timeouts.Series() {
		name := sv.Labels[0]
		e := eps[name]
		e.Timeouts = int64(sv.Value)
		eps[name] = e
	}

	m := &s.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, le := range m.lastErr {
		e := eps[name]
		e.LastError = le.body
		e.LastErrorUnixMs = le.atUnixMs
		eps[name] = e
	}
	rep := HealthReport{
		Status:         "ok",
		UptimeSeconds:  now.Sub(m.start).Seconds(),
		PendingUpdates: pending,
		Endpoints:      eps,
	}
	if !m.lastErrAt.IsZero() && now.Sub(m.lastErrAt) < time.Minute {
		rep.Status = "degraded"
	}
	return rep
}

// statusRecorder captures the response code and error body for accounting.
type statusRecorder struct {
	http.ResponseWriter
	code    int
	errBody []byte
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code >= 400 && len(r.errBody) < 256 {
		r.errBody = append(r.errBody, b[:min(len(b), 256-len(r.errBody))]...)
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps a handler with the server's request deadline, honors an
// inbound X-Rockhopper-Trace identity (minting this node's server child
// span under it, per the propagation contract: the header's span ID is the
// parent), and feeds the per-endpoint accounting behind /api/health and
// /metrics, plus the flight recorder and SLO check.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		cancel := func() {}
		if s.RequestTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.RequestTimeout)
		}
		defer cancel()
		inbound, traced := telemetry.ParseTraceHeader(r.Header.Get(telemetry.TraceHeader))
		sc := inbound
		sp := s.tele.tracer.StartRemote(inbound, name, "server")
		if sp != nil {
			sc = sp.Context()
		}
		if traced {
			ctx = telemetry.WithSpan(ctx, sc)
		}
		start := s.clock().Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r.WithContext(ctx))
		now := s.clock().Now()
		dur := now.Sub(start)
		s.observe(name, rec.code, string(rec.errBody), ctx.Err() != nil, dur, now, sc)
		sp.Finish(strconv.Itoa(rec.code))
		if traced && rec.code >= 400 {
			s.logfCtx(sc, "backend: %s -> %d: %s", name, rec.code, rec.errBody)
		}
		if rec.code >= 500 {
			s.flightRec.Eventf(flightrec.LevelError, "backend", sc, "%s -> %d: %s", name, rec.code, rec.errBody)
		}
		if s.SLOLatency > 0 && dur > s.SLOLatency {
			s.flightRec.Eventf(flightrec.LevelWarn, "backend", sc,
				"SLO breach: %s took %s (objective %s, status %d)", name, dur, s.SLOLatency, rec.code)
			if path, err := s.flightRec.Dump("slo_breach"); err != nil {
				s.logfCtx(sc, "backend: flight-recorder dump failed: %v", err)
			} else if path != "" {
				s.logfCtx(sc, "backend: SLO breach on %s; flight recorder dumped to %s", name, path)
			}
		}
	}
}

// handleHealth serves the backend's health report. It is intentionally
// unauthenticated (load balancers and probes poll it) and read-only. A
// latched durable-store failure overrides the endpoint accounting: a
// backend whose store refuses mutations is "down", not merely degraded,
// even if no request has tripped over it yet.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	pending := s.pending
	s.mu.Unlock()
	rep := s.healthReport(pending, s.clock().Now())
	if err := s.Store.Err(); err != nil {
		rep.Status = "down"
		rep.StoreError = err.Error()
	}
	writeJSON(w, rep)
}
