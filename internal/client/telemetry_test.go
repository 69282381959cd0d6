package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// TestClientCallMetrics asserts the per-call counters against an isolated
// registry: attempts, latency, and ok/error outcomes with bounded kinds.
func TestClientCallMetrics(t *testing.T) {
	space := sparksim.QuerySpace()
	srv, c := newStack(t, space)
	reg := telemetry.NewRegistry()
	c.Metrics = reg
	c.SeedJitter(7)

	if _, err := c.Token(context.Background(), "events/j/", store.PermWrite); err != nil {
		t.Fatal(err)
	}
	srv.Cache.Put("a1", space.Default(), 1)
	if _, ok, err := c.FetchAppCache(context.Background(), "a1"); err != nil || !ok {
		t.Fatalf("FetchAppCache = %v, %v; want the cached entry", ok, err)
	}
	// A miss on a model path: 404 is terminal -> one failed get_object call.
	if _, err := c.GetObject(context.Background(), "models/u/none.model"); err == nil {
		t.Fatal("expected 404 error")
	}

	calls := c.tele().calls
	// Two token fetches: the explicit one plus GetObject's read token.
	if got := calls.With("token", "ok").Value(); got != 2 {
		t.Errorf("token ok calls = %v, want 2", got)
	}
	if got := calls.With("get_appcache", "ok").Value(); got != 1 {
		t.Errorf("get_appcache ok calls = %v, want 1", got)
	}
	if got := calls.With("get_object", "error").Value(); got != 1 {
		t.Errorf("get_object error calls = %v, want 1", got)
	}
	if got := c.tele().attempts.With("get_object").Value(); got != 1 {
		t.Errorf("404 is terminal: attempts = %v, want 1 (no retries)", got)
	}
	if got := c.tele().retries.With("get_object").Value(); got != 0 {
		t.Errorf("retries = %v, want 0", got)
	}
}

// TestClientRetryAndBreakerMetrics drives a dead backend and checks retries,
// breaker transitions, and circuit_open outcomes are counted.
func TestClientRetryAndBreakerMetrics(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(hs.Close)

	c := New(hs.URL, secret)
	reg := telemetry.NewRegistry()
	c.Metrics = reg
	c.SeedJitter(3)
	c.Clock = resilience.NewFakeClock(time.Unix(0, 0))
	c.Breaker.Clock = c.Clock
	c.Breaker.Threshold = 3
	c.Retry = resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}

	if _, _, err := c.FetchAppCache(context.Background(), "a1"); err == nil {
		t.Fatal("dead backend must fail")
	}
	tele := c.tele()
	if got := tele.attempts.With("get_appcache").Value(); got != 3 {
		t.Errorf("attempts = %v, want 3", got)
	}
	if got := tele.retries.With("get_appcache").Value(); got != 2 {
		t.Errorf("retries = %v, want 2", got)
	}
	if got := tele.calls.With("get_appcache", "error").Value(); got != 1 {
		t.Errorf("error calls = %v, want 1", got)
	}
	// Third failure tripped the breaker (threshold 3): closed -> open.
	if got := tele.transitions.With("open").Value(); got != 1 {
		t.Errorf("open transitions = %v, want 1", got)
	}
	// Next call fails fast without an HTTP attempt.
	before := hits.Load()
	if _, _, err := c.FetchAppCache(context.Background(), "a1"); err == nil {
		t.Fatal("open circuit must fail")
	}
	if hits.Load() != before {
		t.Error("open circuit still reached the backend")
	}
	if got := tele.calls.With("get_appcache", "circuit_open").Value(); got != 1 {
		t.Errorf("circuit_open calls = %v, want 1", got)
	}
}

// TestClientTraceReachesBackend: the client-minted identity must land in the
// backend's span ring — the end-to-end trace propagation contract.
func TestClientTraceReachesBackend(t *testing.T) {
	_, c := newStack(t, sparksim.QuerySpace())
	c.SeedJitter(11)
	if _, err := c.Token(context.Background(), "events/j/", store.PermWrite); err != nil {
		t.Fatal(err)
	}
	spans := traceRing(t, c.BaseURL)
	if len(spans) == 0 {
		t.Fatal("client call left no span in the backend ring")
	}
	if spans[0].Name != "token" || spans[0].TraceID == "" {
		t.Errorf("span = %+v, want token span with non-empty trace id", spans[0])
	}

	// A caller-provided span must propagate instead of being re-minted.
	// (/api/appcache is instrumented; /api/health intentionally is not.)
	sc := telemetry.SpanContext{TraceID: 0xfeed, SpanID: 0xbeef}
	ctx := telemetry.WithSpan(context.Background(), sc)
	if _, _, err := c.FetchAppCache(ctx, "artifact-x"); err != nil {
		t.Fatal(err)
	}
	spans = traceRing(t, c.BaseURL)
	found := false
	for _, sp := range spans {
		if sp.TraceID == sc.TraceHex() && sp.Name == "get_appcache" {
			found = true
		}
	}
	if !found {
		t.Errorf("caller-provided trace id %s missing from ring: %+v", sc.TraceHex(), spans)
	}
}

func traceRing(t *testing.T, baseURL string) []telemetry.Span {
	t.Helper()
	resp, err := http.Get(baseURL + "/api/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []telemetry.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	return spans
}
