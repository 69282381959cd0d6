package main

import (
	"errors"
	"fmt"
	"path/filepath"

	"github.com/rockhopper-db/rockhopper/internal/client"
	"github.com/rockhopper-db/rockhopper/internal/core"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// fleetEnv is a replicated fleet with one closed-loop client posting batches
// of recurring signatures through the shard router.
type fleetEnv struct {
	dep     *deployment
	creg    *telemetry.Registry
	lane    *lane
	guard   *shedGuard
	router  *client.ShardRouter
	pool    []string // recurring signatures, in this seed's order
	qs      []*sparksim.Query
	rng     *stats.RNG
	cands   []sparksim.Config
	posted  int // batches posted so far
	setupOK int // events acknowledged during set-up
}

func (e *fleetEnv) close() error { return e.dep.close() }

func (r *run) setupFleet(dir string, nodes int) (*fleetEnv, error) {
	dep, err := openFleet(dir, nodes)
	if err != nil {
		return nil, err
	}
	root := stats.NewRNG(r.seed).SplitNamed("fleet")
	e := &fleetEnv{dep: dep, creg: telemetry.NewRegistry(), lane: newLane(r.clock), guard: &shedGuard{},
		qs: queries(r.seed, 99), rng: root.Split()}
	e.router = dep.newRouter(e.creg, e.lane, e.guard, r.seed)
	e.pool = make([]string, r.sz.pool)
	for i, k := range root.Perm(r.sz.pool) {
		e.pool[i] = fmt.Sprintf("sig-%05d", k)
	}
	e.cands = space.Neighborhood(space.Default(), 0.08, r.sz.candidates, root.Split())
	return e, nil
}

// batchSample is one round's timings in ms.
type batchSample struct {
	ack, fresh, total float64
	recommend         []float64
	traced            bool
}

// round posts the next batch (one trace for each of sz.batch signatures),
// waits until every node's updater has drained, and, when selects > 0, asks
// for a recommendation for the batch's first signatures.
func (e *fleetEnv) round(r *run, selects int) (batchSample, int, error) {
	ln := e.lane
	first := e.posted * r.sz.batch % len(e.pool)
	traces := make([]flighting.Trace, r.sz.batch)
	for i := range traces {
		k := (first + i) % len(e.pool)
		traces[i] = sampleTrace(e.qs[k%len(e.qs)], e.pool[k], e.rng)
	}
	job := fmt.Sprintf("job-%06d", e.posted)
	e.posted++

	loop := ln.begin("loop")
	t0 := r.clock.Now()
	id := ln.begin("post")
	resp, err := e.router.PostEventBatch(r.ctx, tenant, job, traces)
	ln.end(id)
	s := batchSample{ack: msSince(r.clock, t0), traced: ln.on}
	if err == nil {
		id = ln.begin("drain")
		e.dep.flush()
		ln.end(id)
		s.fresh = msSince(r.clock, t0)
		for i := 0; i < selects; i++ {
			sig := traces[i].QueryID
			t := r.clock.Now()
			id = ln.begin("recommend")
			e.router.Selector(space, tenant, sig, core.RandomSelector{RNG: e.rng}).Select(e.cands, nil, traces[i].DataSize)
			ln.end(id)
			s.recommend = append(s.recommend, msSince(r.clock, t))
		}
	}
	s.total = msSince(r.clock, t0)
	ln.end(loop)
	if e.guard.tripped.Load() {
		return s, 0, errShed
	}
	if err == nil && resp.Events != len(traces) {
		err = fmt.Errorf("batch %s: %d of %d events acknowledged", job, resp.Events, len(traces))
	}
	return s, resp.Signatures, err
}

func (r *run) setupBatchFleet(dir string) (*fleetEnv, error) {
	e, err := r.setupFleet(dir, 3)
	if err != nil {
		return nil, err
	}
	// The updater fits no model below four traces, so after sz.warmRounds (5)
	// passes over the pool every signature has one.
	for i := 0; i < r.sz.warmRounds*r.sz.pool/r.sz.batch; i++ {
		if _, _, err := e.round(r, 0); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		e.setupOK += r.sz.batch
	}
	return e, nil
}

func (r *run) batchFleet3() error {
	e, err := setUp(r, "batch_fleet3", r.setupBatchFleet, (*fleetEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	before, err := scrapeAll(append(e.dep.registries(), e.creg)...)
	if err != nil {
		return err
	}

	var samples []batchSample
	counts := windowCounts{}
	start := r.clock.Now()
	end := start.Add(r.window)
	for i := 0; r.clock.Now().Before(end); i++ {
		e.lane.on = r.trace && i%2 == 0
		s, jobs, err := e.round(r, r.sz.selects)
		r.attempted += 1 + len(s.recommend)
		if errors.Is(err, errShed) {
			return err
		}
		if err != nil {
			r.failed++
			continue
		}
		samples = append(samples, s)
		counts.jobs += jobs
	}
	elapsed := r.clock.Now().Sub(start).Seconds()
	e.lane.on = false
	r.set("live_heap_mb", liveHeapMB())

	var ack, fresh, rec []float64
	var total tracedSplit
	for _, s := range samples {
		ack, fresh, rec = append(ack, s.ack), append(fresh, s.fresh), append(rec, s.recommend...)
		total.add(s.total, s.traced)
	}
	counts.events = len(samples) * r.sz.batch
	counts.recommends = len(rec)
	counts.stored = e.setupOK + counts.events
	r.set("events_per_s", float64(counts.events)/elapsed)
	r.set("ack_p50_ms", percentile(ack, 50))
	r.set("fresh_p50_ms", percentile(fresh, 50))
	r.set("recommend_p50_ms", percentile(rec, 50))

	delta, err := r.scrapedLayers(e.dep, e.creg, before, counts)
	if err != nil {
		return err
	}
	r.failed += int(delta.count("rockhopper_client_fallbacks_total", nil))

	r.checkStore(e.dep, counts.stored)
	if r.trace {
		r.spans = e.lane.spans
		r.spanStats("client.recommend", durations(r.spans, "recommend"))
		r.spanStats("client.post_batch", durations(r.spans, "post"))
		r.spanStats("client.fetch_model", durations(r.spans, "http.object"))
		r.set("backend.drain.p50_ms", percentile(durations(r.spans, "drain"), 50))
		r.set("bench.loop_coverage_pct", loopCoverage(r.spans)*100)
		r.traceOverhead(total)
		if len(ack) < r.sz.overheadBatches {
			return fmt.Errorf("window held %d batches, fleet.ack_overhead_ratio needs %d", len(ack), r.sz.overheadBatches)
		}
		single, err := r.singleNodeAck()
		if err != nil {
			return fmt.Errorf("single-node replay: %w", err)
		}
		r.set("fleet.ack_overhead_ratio", percentile(ack[:r.sz.overheadBatches], 50)/single)
		hot := e.pool[0]
		for _, node := range e.dep.nodes {
			if len(node.st.List(fmt.Sprintf("index/%s/%s/", tenant, hot))) > 0 {
				if err := r.probes(node, hot); err != nil {
					return fmt.Errorf("probes: %w", err)
				}
			}
		}
	}
	return r.checkReopen(e.dep, counts.stored)
}

// singleNodeAck replays the first timed batches against a one-node fleet
// (same handler stack, no follower to wait for) and returns its ack p50.
func (r *run) singleNodeAck() (float64, error) {
	e, err := r.setupFleet(filepath.Join(r.tmp, "single"), 1)
	if err != nil {
		return 0, err
	}
	defer e.close()
	var ack []float64
	for i := 0; i < r.sz.overheadBatches; i++ {
		s, _, err := e.round(r, 0)
		if err != nil {
			return 0, err
		}
		ack = append(ack, s.ack)
	}
	return percentile(ack, 50), nil
}
