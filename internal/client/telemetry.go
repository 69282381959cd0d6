package client

import (
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// Fallback reasons for the rockhopper_client_fallbacks_total counter — a
// closed set (cardinality rule, DESIGN.md §8).
const (
	fallbackColdStart    = "cold_start"
	fallbackError        = "error"
	fallbackNoPrediction = "no_prediction"
)

// clientTelemetry is the client's bound instrument set. The `call` label is
// the bounded call kind ("get_object", "post_events", ...), never the raw op
// string, which embeds paths and job IDs.
type clientTelemetry struct {
	attempts    *telemetry.CounterVec   // {call}
	retries     *telemetry.CounterVec   // {call}
	calls       *telemetry.CounterVec   // {call, outcome}
	latency     *telemetry.HistogramVec // {call}
	transitions *telemetry.CounterVec   // {to}
	fallbacks   *telemetry.CounterVec   // {reason}
	trips       *telemetry.CounterVec   // {cause}
}

// tele lazily binds the instruments against c.Metrics on first use (set
// Metrics before the first call; later changes are ignored). A nil Metrics
// yields discarding instruments, so instrumentation never needs nil checks.
func (c *Client) tele() *clientTelemetry {
	c.teleOnce.Do(func() {
		reg := c.Metrics
		t := &clientTelemetry{
			attempts: reg.Counter("rockhopper_client_attempts_total",
				"Individual HTTP attempts by call kind (retries included).", "call"),
			retries: reg.Counter("rockhopper_client_retries_total",
				"Retries scheduled after a transient failure, by call kind.", "call"),
			calls: reg.Counter("rockhopper_client_calls_total",
				"Logical backend calls by kind and outcome (ok, error, circuit_open).", "call", "outcome"),
			latency: reg.Histogram("rockhopper_client_call_seconds",
				"Logical call latency in seconds (all attempts included).", nil, "call"),
			transitions: reg.Counter("rockhopper_client_breaker_transitions_total",
				"Circuit breaker state entries by target state.", "to"),
			fallbacks: reg.Counter("rockhopper_client_fallbacks_total",
				"RemoteSelector falls back to the local selector, by reason.", "reason"),
			trips: reg.Counter("rockhopper_guardrail_trips_attributed_total",
				"Guardrail reverts by attributed cause: drift (the backend's detector for the signature had tripped when the guardrail fired), stationary, or unknown (the backend could not say).", "cause"),
		}
		// Count breaker transitions unless the caller claimed the hook.
		if c.Breaker != nil && c.Breaker.OnTransition == nil {
			c.Breaker.OnTransition = func(_, to resilience.BreakerState) {
				t.transitions.With(to.String()).Inc()
			}
		}
		c.teleBound = t
	})
	return c.teleBound
}
