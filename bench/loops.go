package main

import (
	"errors"
	"fmt"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/client"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

var errShed = errors.New("admission shed a request (429): the run measured the limit, not the loop")

// loopEnv is a single durable node with one closed-loop client driving
// tuning sessions through it: the set-up of loop_short and loop_long.
type loopEnv struct {
	dep      *deployment
	creg     *telemetry.Registry
	lane     *lane
	guard    *shedGuard
	sessions []*client.Session // the timed sessions
	qs       []*sparksim.Query // qs[i] is sessions[i]'s query
	noise    *stats.RNG
	setupOK  int // events acknowledged or prefilled during set-up
}

func (e *loopEnv) close() error { return e.dep.close() }

func (r *run) newLoopEnv(dir string) (*loopEnv, *client.Client, error) {
	dep, url, err := openSingle(dir, r.seed)
	if err != nil {
		return nil, nil, err
	}
	e := &loopEnv{dep: dep, creg: telemetry.NewRegistry(), lane: newLane(r.clock), guard: &shedGuard{},
		noise: stats.NewRNG(r.seed).SplitNamed("noise")}
	return e, dep.newClient(url, e.creg, e.lane, e.guard, r.seed), nil
}

// loopSample is one iteration's timings in ms.
type loopSample struct {
	recommend, ack, fresh, total float64
	traced                       bool
}

// iterate is one loop of Fig. 7 for session i: ask for a configuration, run
// the query, report the run, wait until the model that includes it is
// readable.
func (e *loopEnv) iterate(r *run, s *client.Session, q *sparksim.Query) (loopSample, error) {
	ln := e.lane
	size := q.Plan.LeafInputBytes()
	loop := ln.begin("loop")
	t0 := r.clock.Now()

	id := ln.begin("recommend")
	cfg := s.Recommend(size)
	ln.end(id)
	t1 := r.clock.Now()

	id = ln.begin("simulate")
	obs := engine.Run(q, cfg, 1, e.noise, noise.Low)
	ln.end(id)

	t2 := r.clock.Now()
	id = ln.begin("post")
	err := s.Complete(r.ctx, obs, nil)
	ln.end(id)
	t3 := r.clock.Now()

	id = ln.begin("drain")
	e.dep.flush()
	ln.end(id)
	t4 := r.clock.Now()
	ln.end(loop)

	if e.guard.tripped.Load() {
		return loopSample{}, errShed
	}
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
	return loopSample{
		recommend: ms(t0, t1),
		ack:       ms(t2, t3),
		fresh:     ms(t2, t4),
		total:     ms(t0, t4),
		traced:    ln.on,
	}, err
}

// setupLoopShort opens the node and its sessions — sz.perSignature
// applications for each of many distinct plans — and warms the whole path
// (connections, token cache, allocator, first WAL growth) on extra sessions
// that the timed window does not reuse.
func (r *run) setupLoopShort(dir string) (*loopEnv, error) {
	e, cli, err := r.newLoopEnv(dir)
	if err != nil {
		return nil, err
	}
	n := r.sz.sessions + r.sz.warmSessions
	plans := distinctQueries(r.seed, n/r.sz.perSignature)
	all := make([]*sparksim.Query, n)
	for i := range all {
		// Timed sessions i and i+sessions/perSignature share a plan, so a
		// signature's sessions are spread evenly over each round.
		group := r.sz.sessions / r.sz.perSignature
		all[i] = plans[i%group]
		if i >= r.sz.sessions {
			all[i] = plans[group+(i-r.sz.sessions)%(len(plans)-group)]
		}
	}
	sessions := make([]*client.Session, n)
	for i, q := range all {
		sessions[i], err = client.NewSession(cli, space, tenant, fmt.Sprintf("app-%04d", i), q.Plan, r.seed+uint64(i))
		if err != nil {
			e.close()
			return nil, err
		}
	}
	for it := 0; it < r.sz.warmIters; it++ {
		for i := r.sz.sessions; i < n; i++ {
			if _, err := e.iterate(r, sessions[i], all[i]); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			e.setupOK++
		}
	}
	e.sessions, e.qs = sessions[:r.sz.sessions], all[:r.sz.sessions]
	return e, nil
}

// setupLoopLong opens the node with a few signatures that already have a
// long history. All but the last sz.apiTail runs of it are written straight
// into the store; the rest are real loops, so the sessions start the window
// with a full Centroid Learning window and a model fitted on everything.
func (r *run) setupLoopLong(dir string) (*loopEnv, error) {
	e, cli, err := r.newLoopEnv(dir)
	if err != nil {
		return nil, err
	}
	e.qs = distinctQueries(r.seed, r.sz.longSigs)
	sigs := make([]string, len(e.qs))
	for i, q := range e.qs {
		sigs[i] = sparksim.Signature(q.Plan)
	}
	if err := prefill(e.dep.nodes[0].st, sigs, e.qs, r.sz.longHistory-r.sz.apiTail, stats.NewRNG(r.seed).SplitNamed("prefill")); err != nil {
		e.close()
		return nil, err
	}
	e.setupOK = len(sigs) * r.sz.longHistory
	for i, q := range e.qs {
		s, err := client.NewSession(cli, space, tenant, fmt.Sprintf("app-%04d", i), q.Plan, r.seed+uint64(i))
		if err != nil {
			e.close()
			return nil, err
		}
		e.sessions = append(e.sessions, s)
	}
	for it := 0; it < r.sz.apiTail; it++ {
		for i, s := range e.sessions {
			if _, err := e.iterate(r, s, e.qs[i]); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return e, nil
}

// runLoops is the timed window of both loop workloads: the sessions take
// turns, one loop each, until the window closes.
func (r *run) runLoops(name string, setup func(dir string) (*loopEnv, error), gainRuns int, gainMustHold bool) error {
	e, err := setUp(r, name, setup, (*loopEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	before, err := scrapeAll(append(e.dep.registries(), e.creg)...)
	if err != nil {
		return err
	}

	// In the traced run, blocks of sessions alternate between recording spans
	// and not, and swap every round, so both kinds see the same sessions and
	// the same history sizes.
	block := len(e.sessions)
	if block > 32 {
		block = 32
	}
	var samples []loopSample
	start := r.clock.Now()
	end := start.Add(r.window)
	for i := 0; r.clock.Now().Before(end); i++ {
		k := i % len(e.sessions)
		e.lane.on = r.trace && (k/block+i/len(e.sessions))%2 == 0
		s, err := e.iterate(r, e.sessions[k], e.qs[k])
		r.attempted++
		if errors.Is(err, errShed) {
			return err
		}
		if err != nil {
			r.failed++
			continue
		}
		samples = append(samples, s)
	}
	elapsed := r.clock.Now().Sub(start).Seconds()
	e.lane.on = false
	r.set("live_heap_mb", liveHeapMB())

	var rec, ack, fresh []float64
	var total tracedSplit
	for _, s := range samples {
		rec, ack, fresh = append(rec, s.recommend), append(ack, s.ack), append(fresh, s.fresh)
		total.add(s.total, s.traced)
	}
	r.set("events_per_s", float64(len(samples))/elapsed)
	r.set("ack_p50_ms", percentile(ack, 50))
	r.set("fresh_p50_ms", percentile(fresh, 50))
	r.set("recommend_p50_ms", percentile(rec, 50))

	counts := windowCounts{events: len(samples), jobs: len(samples), recommends: r.attempted, stored: e.setupOK + len(samples)}
	delta, err := r.scrapedLayers(e.dep, e.creg, before, counts)
	if err != nil {
		return err
	}
	r.failed += int(delta.count("rockhopper_client_fallbacks_total", map[string]string{"reason": "error"}))

	histories := make([][]sparksim.Observation, len(e.sessions))
	for i, s := range e.sessions {
		histories[i] = s.History()
	}
	gain, ok := tunedGain(histories, e.qs, gainRuns)
	r.set("core.tuned_gain_pct", gain)
	if gainMustHold {
		r.check("tuned_gain_positive", ok && gain > 0, "%.4f%% over each session's first %d runs (all sessions got that far: %v)", gain, gainRuns, ok)
	}

	node := e.dep.nodes[0]
	r.checkStore(e.dep, counts.stored)
	if r.trace {
		r.spans = e.lane.spans
		r.spanStats("client.recommend", durations(r.spans, "recommend"))
		r.spanStats("client.post_events", durations(r.spans, "post"))
		r.spanStats("client.fetch_model", durations(r.spans, "http.object"))
		r.set("backend.drain.p50_ms", percentile(durations(r.spans, "drain"), 50))
		r.set("bench.loop_coverage_pct", loopCoverage(r.spans)*100)
		r.traceOverhead(total)
		if err := r.probes(node, e.sessions[0].Signature); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}
	return r.checkReopen(e.dep, counts.stored)
}

func (r *run) loopShort() error {
	// Sixteen-run histories are too short for tuning to have paid off, so the
	// gain is reported here and held to be positive only on loop_long.
	return r.runLoops("loop_short", r.setupLoopShort, r.sz.shortGainRuns, false)
}

func (r *run) loopLong() error {
	return r.runLoops("loop_long", r.setupLoopLong, r.sz.longGainRuns, true)
}
