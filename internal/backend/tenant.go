package backend

import (
	"math"
	"net/http"
	"strconv"
	"time"
)

// Per-tenant admission: a token bucket per tenant gates how many events a
// tenant may ingest per second, and an atomic slot reservation gates the
// shared Model Updater backlog. Both shed with 429 + Retry-After so the
// client's retry classifier backs off instead of hammering.

// DefaultTenantBurst is the token-bucket capacity when TenantBurst is unset.
const DefaultTenantBurst = 256

// maxTrackedTenants bounds the bucket map: once this many distinct tenants
// are tracked, further unseen tenant names share one overflow bucket, so a
// hostile flood of fresh names can neither grow memory nor dodge the limit.
const maxTrackedTenants = 4096

// maxTenantLabelValues bounds per-tenant metric cardinality (DESIGN.md §8):
// the first N distinct tenants get their own label value, the rest share
// overflowTenant.
const maxTenantLabelValues = 64

// overflowTenant is the shared label/bucket key past the tracking caps.
const overflowTenant = "other"

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// admitTenant charges cost events against the tenant's token bucket.
// Rate limiting is off while TenantRate <= 0. A cost above the burst is
// clamped to it so one oversized batch still passes when the bucket is
// full rather than being unservable forever.
func (s *Server) admitTenant(user string, cost float64) (ok bool, retryAfter time.Duration) {
	rate := s.TenantRate
	if rate <= 0 {
		return true, 0
	}
	burst := s.TenantBurst
	if burst <= 0 {
		burst = DefaultTenantBurst
	}
	cost = math.Min(math.Max(cost, 1), burst)
	now := s.clock().Now()

	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if s.buckets == nil {
		s.buckets = make(map[string]*tokenBucket)
	}
	key := user
	if _, seen := s.buckets[key]; !seen && len(s.buckets) >= maxTrackedTenants {
		key = overflowTenant
	}
	b := s.buckets[key]
	if b == nil {
		b = &tokenBucket{tokens: burst, last: now}
		s.buckets[key] = b
	}
	b.tokens = math.Min(burst, b.tokens+rate*now.Sub(b.last).Seconds())
	b.last = now
	if b.tokens >= cost {
		b.tokens -= cost
		return true, 0
	}
	return false, time.Duration((cost - b.tokens) / rate * float64(time.Second))
}

// tenantLabel maps a raw user to a bounded metric label value.
func (s *Server) tenantLabel(user string) string {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if s.tenantLabels == nil {
		s.tenantLabels = make(map[string]bool)
	}
	if s.tenantLabels[user] {
		return user
	}
	if len(s.tenantLabels) >= maxTenantLabelValues {
		return overflowTenant
	}
	s.tenantLabels[user] = true
	return user
}

// SetTenantWeight fixes a tenant's share of the Model Updater: a tenant
// with weight w drains up to w jobs per rotation (default 1). Daemons set
// this from -tenant-weights before serving traffic.
func (s *Server) SetTenantWeight(user string, weight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue.setWeight(user, weight)
}

// tryAdmit atomically reserves n Model Updater slots. This is the fixed
// admission path: check and reservation happen under one critical section,
// so concurrent requests can never all pass a stale check and overshoot
// MaxPendingUpdates the way the old read-then-enqueue sequence could.
// Callers must releaseAdmit any reserved slot they fail to enqueue.
func (s *Server) tryAdmit(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.pending+n > s.maxPending() {
		return false
	}
	s.pending += n
	if s.pending > s.peakPending {
		s.peakPending = s.pending
	}
	return true
}

// releaseAdmit returns n reserved slots: a request's, on a failure between
// admission and enqueue, or the updater's, for jobs whose work is over.
func (s *Server) releaseAdmit(n int) {
	s.mu.Lock()
	s.pending -= n
	s.cond.Broadcast()
	s.mu.Unlock()
}

// shedQueueFull answers 429 for a saturated updater backlog.
func (s *Server) shedQueueFull(w http.ResponseWriter, endpoint, user string) {
	s.tele.shed.With(endpoint).Inc()
	s.tele.tenantShed.With(s.tenantLabel(user), "queue_full").Inc()
	w.Header().Set("Retry-After", "1")
	http.Error(w, "model updater queue saturated; retry later", http.StatusTooManyRequests)
}

// shedRateLimited answers 429 for an exhausted tenant token bucket, with
// Retry-After rounded up to whole seconds.
func (s *Server) shedRateLimited(w http.ResponseWriter, endpoint, user string, retryAfter time.Duration) {
	s.tele.shed.With(endpoint).Inc()
	s.tele.tenantShed.With(s.tenantLabel(user), "rate_limit").Inc()
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "tenant rate limit exceeded; retry later", http.StatusTooManyRequests)
}

// observeIngest records one ingest request's handling latency on the
// tenant-labeled series and counts its admitted events.
func (s *Server) observeIngest(user string, start time.Time, admitted int) {
	label := s.tenantLabel(user)
	s.tele.tenantIngestSeconds.With(label).Observe(s.clock().Now().Sub(start).Seconds())
	if admitted > 0 {
		s.tele.tenantAdmitted.With(label).Add(float64(admitted))
	}
}
