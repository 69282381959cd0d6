package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

// metricDef is one row of BENCHMARK.json: bench_test.go holds the two
// tables and that file to each other.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd is what a user of the service sees. failed_share is reported
// beside these through the result's attempted/failed counts: it is 0 on a
// healthy run, and the contract gates only metrics that are never 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"fresh_p50_ms", "ms", "lower", 0.25},
	{"recommend_p50_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer is keyed by module name; README.md says where each number comes
// from and which end-to-end metric it should move. A metric the workload
// does not exercise reads 0 with a 0 count next to it.
var perLayer = []metricDef{
	{name: "client.recommend.p50_ms", unit: "ms", better: "lower"},
	{name: "client.recommend.p99_ms", unit: "ms", better: "lower"},
	{name: "client.recommend.count", unit: "count", better: "higher"},
	{name: "client.post_events.p50_ms", unit: "ms", better: "lower"},
	{name: "client.post_events.p99_ms", unit: "ms", better: "lower"},
	{name: "client.post_events.count", unit: "count", better: "higher"},
	{name: "client.post_batch.p50_ms", unit: "ms", better: "lower"},
	{name: "client.post_batch.p99_ms", unit: "ms", better: "lower"},
	{name: "client.post_batch.count", unit: "count", better: "higher"},
	{name: "client.fetch_model.p50_ms", unit: "ms", better: "lower"},
	{name: "client.fetch_model.p99_ms", unit: "ms", better: "lower"},
	{name: "client.fetch_model.count", unit: "count", better: "higher"},
	{name: "client.retries", unit: "count", better: "lower"},
	{name: "client.fallback_share", unit: "ratio", better: "lower"},
	{name: "client.token.count", unit: "count", better: "lower"},
	{name: "backend.http.events.mean_ms", unit: "ms", better: "lower"},
	{name: "backend.http.events_batch.mean_ms", unit: "ms", better: "lower"},
	{name: "backend.http.get_object.mean_ms", unit: "ms", better: "lower"},
	{name: "backend.http.token.mean_ms", unit: "ms", better: "lower"},
	{name: "backend.retrains", unit: "count", better: "lower"},
	{name: "backend.retrain.mean_ms", unit: "ms", better: "lower"},
	{name: "backend.retrain.skipped_share", unit: "ratio", better: "lower"},
	{name: "backend.shed", unit: "count", better: "lower"},
	{name: "backend.queue_depth_max", unit: "count", better: "lower"},
	{name: "backend.drain.p50_ms", unit: "ms", better: "lower"},
	{name: "store.wal_appends", unit: "count", better: "lower"},
	{name: "store.fsyncs", unit: "count", better: "lower"},
	{name: "store.fsync.mean_ms", unit: "ms", better: "lower"},
	{name: "store.fsyncs_per_event", unit: "ratio", better: "lower"},
	{name: "store.snapshots", unit: "count", better: "lower"},
	{name: "store.snapshot.mean_ms", unit: "ms", better: "lower"},
	{name: "store.objects", unit: "count", better: "lower"},
	{name: "store.disk_bytes_per_event", unit: "B", better: "lower"},
	{name: "store.put.p50_us", unit: "us", better: "lower"},
	{name: "store.put_batch128.p50_us", unit: "us", better: "lower"},
	{name: "store.list_sig.p50_us", unit: "us", better: "lower"},
	{name: "store.get.p50_us", unit: "us", better: "lower"},
	{name: "store.replay_ms", unit: "ms", better: "lower"},
	{name: "fleet.replication_wait.mean_ms", unit: "ms", better: "lower"},
	{name: "fleet.replicated_records", unit: "count", better: "lower"},
	{name: "fleet.lag_records_end", unit: "count", better: "lower"},
	{name: "fleet.misrouted", unit: "count", better: "lower"},
	{name: "fleet.ring_owner_ns", unit: "ns", better: "lower"},
	{name: "fleet.ack_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "ml.fit.p50_ms", unit: "ms", better: "lower"},
	{name: "ml.marshal_us", unit: "us", better: "lower"},
	{name: "ml.unmarshal_us", unit: "us", better: "lower"},
	{name: "ml.predict_us", unit: "us", better: "lower"},
	{name: "ml.model_bytes", unit: "B", better: "lower"},
	{name: "flighting.write_traces_us", unit: "us", better: "lower"},
	{name: "flighting.read_traces_us", unit: "us", better: "lower"},
	{name: "core.propose_us", unit: "us", better: "lower"},
	{name: "core.observe_us", unit: "us", better: "lower"},
	{name: "core.tuned_gain_pct", unit: "%", better: "higher"},
	{name: "telemetry.scrape_ms", unit: "ms", better: "lower"},
	{name: "telemetry.spans_evicted", unit: "count", better: "lower"},
	{name: "bench.loop_coverage_pct", unit: "%", better: "higher"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.failed_share", unit: "ratio", better: "lower"},
}

// sizes are the op counts of one scale. Histories and the batch size are the
// issue's; the fleet's signature pool is a quarter of it, so that three
// set-ups and the timed window fit the driver's per-run budget.
type sizes struct {
	setups int // set-ups per run; setup_s is their median

	sessions, warmSessions, warmIters int // loop_short
	perSignature                      int // loop_short: sessions (applications) per signature
	longSigs, longHistory             int // loop_long

	pool, batch, warmRounds, selects, candidates int // batch_fleet3
	overheadBatches                              int // fleet.ack_overhead_ratio replay

	rwSigs, rwHistory int           // mixed_rw
	apiTail           int           // loop_long, mixed_rw: last runs of each history, sent through the API
	backlog           int           // mixed_rw: posts between two waits for the updater
	ramp              time.Duration // mixed_rw: unrecorded load before the window

	shortGainRuns, longGainRuns int // runs per session core.tuned_gain_pct is taken over

	probeReps int
}

var scales = map[string]sizes{
	"full": {
		setups: 3, sessions: 384, warmSessions: 32, warmIters: 16, perSignature: 2,
		longSigs: 2, longHistory: 512,
		pool: 1024, batch: 128, warmRounds: 5, selects: 4, candidates: 16, overheadBatches: 32,
		rwSigs: 64, rwHistory: 64, apiTail: 16, backlog: 8, ramp: time.Second,
		shortGainRuns: 5, longGainRuns: 40, probeReps: 15,
	},
	"smoke": {
		setups: 1, sessions: 24, warmSessions: 4, warmIters: 4, perSignature: 2,
		longSigs: 2, longHistory: 48,
		pool: 64, batch: 16, warmRounds: 5, selects: 2, candidates: 16, overheadBatches: 4,
		rwSigs: 8, rwHistory: 16, apiTail: 2, backlog: 8, ramp: 100 * time.Millisecond,
		shortGainRuns: 5, longGainRuns: 5, probeReps: 3,
	},
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// run is the state of one workload run in this process.
type run struct {
	ctx    context.Context
	clock  resilience.Clock
	seed   uint64
	window time.Duration
	trace  bool
	sz     sizes
	tmp    string

	vals      map[string]float64
	checks    []check
	attempted int
	failed    int
	spans     []span
}

var known = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range endToEnd {
		m[d.name] = true
	}
	for _, d := range perLayer {
		m[d.name] = true
	}
	return m
}()

// set records a metric; a name outside the two tables is a bug here, not a
// new metric.
func (r *run) set(name string, v float64) {
	if !known[name] {
		panic("bench: metric " + name + " is not in the metric tables")
	}
	r.vals[name] = v
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// setUp runs setup r.sz.setups times, each on a fresh directory, keeps the
// last environment for the timed window and records the median duration as
// setup_s: a single set-up's time swings with the disk more than any other
// number here.
func setUp[T any](r *run, name string, setup func(dir string) (T, error), discard func(T) error) (T, error) {
	var env T
	var took []float64
	for i := 0; i < r.sz.setups; i++ {
		dir := filepath.Join(r.tmp, fmt.Sprintf("%s-%d", name, i))
		start := r.clock.Now()
		e, err := setup(dir)
		if err != nil {
			return env, fmt.Errorf("set-up %d: %w", i, err)
		}
		took = append(took, r.clock.Now().Sub(start).Seconds())
		if i < r.sz.setups-1 {
			if err := discard(e); err != nil {
				return env, fmt.Errorf("set-up %d: close: %w", i, err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return env, err
			}
			continue
		}
		env = e
	}
	r.set("setup_s", percentile(took, 50))
	return env, nil
}

// spanStats publishes p50, p99 and count of the named spans under prefix.
func (r *run) spanStats(prefix string, ms []float64) {
	r.set(prefix+".p50_ms", percentile(ms, 50))
	r.set(prefix+".p99_ms", percentile(ms, 99))
	r.set(prefix+".count", float64(len(ms)))
}

// tracedSplit holds whole-iteration times of one kind of op, by whether the
// iteration recorded spans.
type tracedSplit struct{ traced, untraced []float64 }

func (t *tracedSplit) add(ms float64, traced bool) {
	if traced {
		t.traced = append(t.traced, ms)
	} else {
		t.untraced = append(t.untraced, ms)
	}
}

// traceOverhead is how much longer a traced iteration takes than an untraced
// one of the same window, as the ratio of their median times summed over the
// kinds of op the workload issues.
func (r *run) traceOverhead(kinds ...tracedSplit) {
	var with, without float64
	for _, k := range kinds {
		with += percentile(k.traced, 50)
		without += percentile(k.untraced, 50)
	}
	if without > 0 {
		r.set("bench.trace_overhead_pct", (with/without-1)*100)
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
