package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/client"
	"github.com/rockhopper-db/rockhopper/internal/core"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// mixedEnv is a single durable node whose signatures all have a model, with
// a writing client and a reading client that share nothing but the backend.
type mixedEnv struct {
	dep            *deployment
	creg           *telemetry.Registry
	guard          *shedGuard
	writer, reader *client.Client
	wlane, rlane   *lane
	sigs           []string
	qs             []*sparksim.Query
	cands          []sparksim.Config
	setupOK        int
}

func (e *mixedEnv) close() error { return e.dep.close() }

func (r *run) setupMixed(dir string) (*mixedEnv, error) {
	dep, url, err := openSingle(dir, r.seed)
	if err != nil {
		return nil, err
	}
	root := stats.NewRNG(r.seed).SplitNamed("mixed")
	e := &mixedEnv{dep: dep, creg: telemetry.NewRegistry(), guard: &shedGuard{},
		wlane: newLane(r.clock), rlane: newLane(r.clock), qs: queries(r.seed, r.sz.rwSigs)}
	e.rlane.epoch = e.wlane.epoch
	e.writer = dep.newClient(url, e.creg, e.wlane, e.guard, r.seed)
	e.reader = dep.newClient(url, e.creg, e.rlane, e.guard, r.seed+1)
	e.cands = space.Neighborhood(space.Default(), 0.08, r.sz.candidates, root.Split())
	for i := 0; i < r.sz.rwSigs; i++ {
		e.sigs = append(e.sigs, fmt.Sprintf("rw-%03d", i))
	}
	rng := root.Split()
	if err := prefill(dep.nodes[0].st, e.sigs, e.qs, r.sz.rwHistory-r.sz.apiTail, rng); err != nil {
		e.close()
		return nil, err
	}
	// The last runs of each history arrive through the batch endpoint, one
	// run per signature per batch, so every model is fitted by the updater.
	for b := 0; b < r.sz.apiTail; b++ {
		traces := make([]flighting.Trace, len(e.sigs))
		for i, sig := range e.sigs {
			traces[i] = sampleTrace(e.qs[i], sig, rng)
		}
		if _, err := e.writer.PostEventBatch(r.ctx, tenant, fmt.Sprintf("warm-%02d", b), traces); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		dep.flush()
	}
	e.setupOK = len(e.sigs) * r.sz.rwHistory
	return e, nil
}

// clientStats is what one of the two clients measured, in ms.
type clientStats struct {
	latency tracedSplit // every op's time, by whether it recorded spans
	errs    int
}

// write posts one run at a time, round-robin over the signatures, as fast as
// the backend acknowledges them. It never waits for a retrain on the way,
// so the updater works beside the posts and fetches that follow — except
// that after every sz.backlog-th post it waits for the updater to catch up,
// which both measures freshness and keeps the backlog an order of magnitude
// under the admission limit.
func (e *mixedEnv) write(r *run, end time.Time) (st clientStats, fresh, drain []float64) {
	rng := stats.NewRNG(r.seed).SplitNamed("writer")
	ln := e.wlane
	for i := 0; r.clock.Now().Before(end); i++ {
		// Whole backlog cycles alternate between traced and untraced, so both
		// kinds hold every position relative to the wait for the updater.
		ln.on = r.trace && i/r.sz.backlog%2 == 0
		k := i % len(e.sigs)
		tr := sampleTrace(e.qs[k], e.sigs[k], rng)
		sent := r.clock.Now()
		loop := ln.begin("loop")
		id := ln.begin("post")
		err := e.writer.PostEvents(r.ctx, tenant, e.sigs[k], fmt.Sprintf("w-%03d", k), []flighting.Trace{tr})
		ln.end(id)
		acked := msSince(r.clock, sent)
		if err == nil && i%r.sz.backlog == r.sz.backlog-1 {
			id = ln.begin("drain")
			e.dep.flush()
			ln.end(id)
			ms := msSince(r.clock, sent)
			fresh, drain = append(fresh, ms), append(drain, ms-acked)
		}
		ln.end(loop)
		if err != nil {
			st.errs++
			continue
		}
		st.latency.add(acked, ln.on)
	}
	return st, fresh, drain
}

// read asks for one recommendation after another, striding over the
// signatures so consecutive fetches hit different models.
func (e *mixedEnv) read(r *run, end time.Time) (st clientStats) {
	fallback := core.RandomSelector{RNG: stats.NewRNG(r.seed).SplitNamed("reader")}
	ln := e.rlane
	for i := 0; r.clock.Now().Before(end); i++ {
		ln.on = r.trace && i/r.sz.backlog%2 == 0
		k := i * 7 % len(e.sigs)
		sel := client.RemoteSelector{Client: e.reader, Space: space, User: tenant, Signature: e.sigs[k], Fallback: fallback}
		began := r.clock.Now()
		loop := ln.begin("loop")
		id := ln.begin("recommend")
		sel.Select(e.cands, nil, e.qs[k].Plan.LeafInputBytes())
		ln.end(id)
		ln.end(loop)
		st.latency.add(msSince(r.clock, began), ln.on)
	}
	return st
}

// queueDepth samples the node's rockhopper_updater_queue_depth gauge at
// 10 Hz until end.
func (r *run) queueDepth(reg *telemetry.Registry, end time.Time) ([]float64, error) {
	var depth []float64
	for r.clock.Now().Before(end) {
		if err := r.clock.Sleep(r.ctx, 100*time.Millisecond); err != nil {
			return nil, err
		}
		s, err := scrapeAll(reg)
		if err != nil {
			return nil, err
		}
		depth = append(depth, s.total("rockhopper_updater_queue_depth", nil))
	}
	return depth, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// driven is what both clients and the queue-depth sampler measured over one
// stretch of load.
type driven struct {
	w, rd        clientStats
	fresh, drain []float64
	depth        []float64
	elapsed      float64 // seconds
}

// drive runs the writer, the reader and the queue-depth sampler for d.
func (e *mixedEnv) drive(r *run, d time.Duration) (driven, error) {
	var (
		out driven
		wg  sync.WaitGroup
	)
	start := r.clock.Now()
	end := start.Add(d)
	wg.Add(2)
	go func() { defer wg.Done(); out.w, out.fresh, out.drain = e.write(r, end) }()
	go func() { defer wg.Done(); out.rd = e.read(r, end) }()
	depth, err := r.queueDepth(e.dep.nodes[0].reg, end)
	wg.Wait()
	out.depth, out.elapsed = depth, r.clock.Now().Sub(start).Seconds()
	return out, err
}

func (r *run) mixedRW() error {
	e, err := setUp(r, "mixed_rw", r.setupMixed, (*mixedEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	node := e.dep.nodes[0]

	// Both clients run unrecorded first: the first second after set-up is
	// slower than the steady state the window is meant to measure.
	warm, err := e.drive(r, r.sz.ramp)
	if err != nil {
		return err
	}
	e.setupOK += len(warm.w.latency.traced) + len(warm.w.latency.untraced)
	e.wlane.reset()
	e.rlane.reset()
	before, err := scrapeAll(node.reg, e.creg)
	if err != nil {
		return err
	}
	d, err := e.drive(r, r.window)
	if err != nil {
		return err
	}
	if e.guard.tripped.Load() {
		return errShed
	}
	r.set("live_heap_mb", liveHeapMB())

	ack := append(d.w.latency.traced, d.w.latency.untraced...)
	rec := append(d.rd.latency.traced, d.rd.latency.untraced...)
	r.attempted = len(ack) + d.w.errs + len(rec)
	r.failed = d.w.errs
	r.set("events_per_s", float64(len(ack))/d.elapsed)
	r.set("ack_p50_ms", percentile(ack, 50))
	r.set("fresh_p50_ms", percentile(d.fresh, 50))
	r.set("recommend_p50_ms", percentile(rec, 50))
	r.set("backend.queue_depth_max", maxOf(d.depth))
	r.set("backend.drain.p50_ms", percentile(d.drain, 50))
	half := len(d.depth) / 2
	r.check("queue_not_growing", maxOf(d.depth[half:]) <= maxOf(d.depth[:half])+float64(r.sz.backlog),
		"updater queue depth max %v in the first half of the window, %v in the second", maxOf(d.depth[:half]), maxOf(d.depth[half:]))

	counts := windowCounts{events: len(ack), jobs: len(ack), recommends: len(rec), stored: e.setupOK + len(ack)}
	delta, err := r.scrapedLayers(e.dep, e.creg, before, counts)
	if err != nil {
		return err
	}
	r.failed += int(delta.count("rockhopper_client_fallbacks_total", nil))

	r.checkStore(e.dep, counts.stored)
	if r.trace {
		r.spans = mergeLanes(e.wlane, e.rlane)
		r.spanStats("client.recommend", durations(r.spans, "recommend"))
		r.spanStats("client.post_events", durations(r.spans, "post"))
		r.spanStats("client.fetch_model", durations(r.spans, "http.object"))
		r.set("bench.loop_coverage_pct", loopCoverage(r.spans)*100)
		r.traceOverhead(d.w.latency, d.rd.latency)
		if err := r.probes(node, e.sigs[0]); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}
	return r.checkReopen(e.dep, counts.stored)
}
