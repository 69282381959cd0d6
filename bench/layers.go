package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"

	"github.com/rockhopper-db/rockhopper/internal/core"
	"github.com/rockhopper-db/rockhopper/internal/fleet"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
)

// windowCounts is what the load goroutines counted over the timed window;
// the scraped series are read against it.
type windowCounts struct {
	events     int // events acknowledged
	jobs       int // Model Updater jobs those acks admitted
	recommends int // Recommend/Select calls
	stored     int // event files the store should hold at the end, set-up included
}

// scrapedLayers fills every [scrape] and [disk] metric from the nodes' and
// the client's own registries, as deltas over the timed window.
func (r *run) scrapedLayers(dep *deployment, creg *telemetry.Registry, before scrape, n windowCounts) (registryDelta, error) {
	start := r.clock.Now()
	after, err := scrapeAll(append(dep.registries(), creg)...)
	if err != nil {
		return registryDelta{}, err
	}
	r.set("telemetry.scrape_ms", msSince(r.clock, start))
	d := registryDelta{before: before, after: after}

	r.set("client.retries", d.count("rockhopper_client_retries_total", nil))
	r.set("client.token.count", d.count("rockhopper_client_calls_total", map[string]string{"call": "token"}))
	if n.recommends > 0 {
		r.set("client.fallback_share", d.count("rockhopper_client_fallbacks_total", nil)/float64(n.recommends))
	}

	const httpHist = "rockhopper_http_request_duration_seconds"
	for _, ep := range []string{"events", "events_batch", "get_object", "token"} {
		r.set("backend.http."+ep+".mean_ms", d.meanMs(httpHist, map[string]string{"endpoint": ep}))
	}
	retrains := d.count("rockhopper_updater_retrains_total", nil)
	r.set("backend.retrains", retrains)
	r.set("backend.retrain.mean_ms", d.meanMs("rockhopper_updater_retrain_seconds", nil))
	if n.jobs > 0 {
		r.set("backend.retrain.skipped_share", 1-retrains/float64(n.jobs))
	}
	r.set("backend.shed", d.count("rockhopper_shed_total", nil))

	fsyncs := d.count("rockhopper_wal_fsync_seconds_count", nil)
	r.set("store.wal_appends", d.count("rockhopper_wal_appends_total", nil))
	r.set("store.fsyncs", fsyncs)
	r.set("store.fsync.mean_ms", d.meanMs("rockhopper_wal_fsync_seconds", nil))
	if n.events > 0 {
		r.set("store.fsyncs_per_event", fsyncs/float64(n.events))
	}
	r.set("store.snapshots", d.count("rockhopper_wal_snapshot_seconds_count", nil))
	r.set("store.snapshot.mean_ms", d.meanMs("rockhopper_wal_snapshot_seconds", nil))
	r.set("store.objects", after.total("rockhopper_store_objects", nil))
	var disk int64
	for _, node := range dep.nodes {
		b, err := dirBytes(node.dir)
		if err != nil {
			return d, err
		}
		disk += b
	}
	if n.stored > 0 {
		r.set("store.disk_bytes_per_event", float64(disk)/float64(n.stored))
	}

	r.set("fleet.replication_wait.mean_ms", d.meanMs("rockhopper_fleet_replication_wait_seconds", nil))
	r.set("fleet.replicated_records", d.count("rockhopper_fleet_replicated_records_total", nil))
	r.set("fleet.lag_records_end", after.total("rockhopper_fleet_replication_lag_records", nil))
	r.set("fleet.misrouted", d.count("rockhopper_fleet_misrouted_total", nil))

	r.set("telemetry.spans_evicted", d.count("rockhopper_trace_spans_evicted_total", nil))
	return d, nil
}

// timeReps runs op reps times and returns each run's duration in µs.
func (r *run) timeReps(reps int, op func(i int) error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := r.clock.Now()
		if err := op(i); err != nil {
			return nil, err
		}
		out = append(out, float64(r.clock.Now().Sub(start).Nanoseconds())/1e3)
	}
	return out, nil
}

// probes calls each lower layer's public functions directly, on inputs taken
// from the finished workload: hot is the signature with the longest history
// on st, the store of the node that owns it.
func (r *run) probes(node backendNode, hot string) error {
	st, reps := node.st, r.sz.probeReps
	traces, err := signatureTraces(st, hot)
	if err != nil {
		return err
	}
	if len(traces) < 4 {
		return fmt.Errorf("probe signature %s has only %d traces", hot, len(traces))
	}

	// store: reads against the live store, writes against a scratch one with
	// the same options, replay against a copy of the live directory.
	us, err := r.timeReps(reps*8, func(int) error { st.List(fmt.Sprintf("index/%s/%s/", tenant, hot)); return nil })
	if err != nil {
		return err
	}
	r.set("store.list_sig.p50_us", percentile(us, 50))
	events := st.List("events/")
	us, err = r.timeReps(reps*8, func(i int) error { _, err := st.GetInternal(events[i*7919%len(events)]); return err })
	if err != nil {
		return err
	}
	r.set("store.get.p50_us", percentile(us, 50))

	scratch, err := store.OpenDurable(filepath.Join(r.tmp, "probe-scratch"), storeSecret, store.DurableOptions{})
	if err != nil {
		return err
	}
	defer scratch.Close()
	var file bytes.Buffer
	if err := flighting.WriteTraces(&file, traces[:1]); err != nil {
		return err
	}
	us, err = r.timeReps(reps*4, func(i int) error {
		scratch.PutInternal(store.EventPath("probe", i), file.Bytes())
		return scratch.Err()
	})
	if err != nil {
		return err
	}
	r.set("store.put.p50_us", percentile(us, 50))
	us, err = r.timeReps(reps, func(i int) error {
		entries := make([]store.BatchEntry, 128)
		for j := range entries {
			entries[j] = store.BatchEntry{Path: store.EventPath(fmt.Sprintf("probe-batch-%d", i), j), Data: file.Bytes()}
		}
		return scratch.PutBatch(entries)
	})
	if err != nil {
		return err
	}
	r.set("store.put_batch128.p50_us", percentile(us, 50))

	var replay []float64
	for i := 0; i < 3; i++ {
		dir := filepath.Join(r.tmp, fmt.Sprintf("probe-replay-%d", i))
		if err := copyDir(node.primary, dir); err != nil {
			return err
		}
		start := r.clock.Now()
		re, err := store.OpenDurable(dir, storeSecret, store.DurableOptions{})
		if err != nil {
			return err
		}
		replay = append(replay, msSince(r.clock, start))
		got := len(re.List("events/"))
		if err := re.Close(); err != nil {
			return err
		}
		if got != len(events) {
			return fmt.Errorf("replayed copy holds %d event files, live store %d", got, len(events))
		}
	}
	r.set("store.replay_ms", percentile(replay, 50))

	// ml: the Model Updater's fit at the workload's final history.
	x := make([][]float64, len(traces))
	y := make([]float64, len(traces))
	for i, t := range traces {
		x[i] = tuners.ConfigFeatures(space, nil, t.Config, t.DataSize)
		y[i] = math.Log1p(t.TimeMs)
	}
	var kr *ml.KernelRidge
	us, err = r.timeReps(reps, func(int) error {
		kr = ml.NewKernelRidge()
		kr.Alpha = 0.3
		return kr.Fit(x, y)
	})
	if err != nil {
		return err
	}
	r.set("ml.fit.p50_ms", percentile(us, 50)/1e3)
	var blob []byte
	us, err = r.timeReps(reps, func(int) error { blob, err = ml.Marshal(kr); return err })
	if err != nil {
		return err
	}
	r.set("ml.marshal_us", percentile(us, 50))
	var model ml.Regressor
	us, err = r.timeReps(reps, func(int) error { model, err = ml.Unmarshal(blob); return err })
	if err != nil {
		return err
	}
	r.set("ml.unmarshal_us", percentile(us, 50))
	var sink float64
	us, err = r.timeReps(reps*8, func(i int) error { sink += model.Predict(x[i%len(x)]); return nil })
	if err != nil || !finite(sink) {
		return fmt.Errorf("predict probe: %v (sum %v)", err, sink)
	}
	r.set("ml.predict_us", percentile(us, 50))
	stored, err := st.GetInternal(store.ModelPath(tenant, hot))
	if err != nil {
		return err
	}
	r.set("ml.model_bytes", float64(len(stored)))

	// flighting: one production-shaped event file (one run).
	us, err = r.timeReps(reps*8, func(int) error {
		var buf bytes.Buffer
		return flighting.WriteTraces(&buf, traces[:1])
	})
	if err != nil {
		return err
	}
	r.set("flighting.write_traces_us", percentile(us, 50))
	us, err = r.timeReps(reps*8, func(int) error { _, err := flighting.ReadTraces(bytes.NewReader(file.Bytes())); return err })
	if err != nil {
		return err
	}
	r.set("flighting.read_traces_us", percentile(us, 50))

	// fleet: ring lookup of a recurring signature.
	topo := fleet.NewTopology([]string{"n1", "n2", "n3"}, fleetReplicas, fleetVnodes, fleetRingSeed)
	us, err = r.timeReps(reps*8, func(i int) error {
		for j := 0; j < 100; j++ {
			topo.Owner(fmt.Sprintf("sig-%05d", i*100+j))
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("fleet.ring_owner_ns", percentile(us, 50)*1e3/100)

	return r.probeCore()
}

// probeCore times one Centroid Learning step on a learner pinned at a
// 20-observation window: every repetition restores the same snapshot, so the
// cost cannot drift with the repetition count.
func (r *run) probeCore() error {
	rng := stats.NewRNG(r.seed).SplitNamed("core-probe")
	q := queries(r.seed, 1)[0]
	size := q.Plan.LeafInputBytes()
	learner := core.New(space, core.NewSurrogateSelector(space, nil, nil, rng.Split()), rng.Split())
	var last sparksim.Observation
	for i := 0; i < 20; i++ {
		last = engine.Run(q, learner.Propose(i, size), 1, rng, noise.Low)
		last.Iteration = i
		learner.Observe(last)
	}
	pinned := learner.Snapshot()
	us, err := r.timeReps(r.sz.probeReps, func(int) error {
		learner.Restore(pinned)
		learner.Propose(20, size)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("core.propose_us", percentile(us, 50))
	last.Iteration = 20
	us, err = r.timeReps(r.sz.probeReps, func(int) error {
		learner.Restore(pinned)
		learner.Observe(last)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("core.observe_us", percentile(us, 50))
	return nil
}

// tunedGain is how much faster than the default configuration the sessions'
// runs were, as the mean over sessions of 1 − (mean noiseless time of the
// last fifth of the first n runs ÷ noiseless time at the default), in
// percent. Only the first n runs count so that the number depends on the
// seed and not on how many loops the window happened to fit.
func tunedGain(histories [][]sparksim.Observation, qs []*sparksim.Query, n int) (float64, bool) {
	var gains []float64
	for i, h := range histories {
		if len(h) < n {
			return 0, false
		}
		var tail []float64
		for _, o := range h[n-n/5 : n] {
			tail = append(tail, o.TrueTime)
		}
		gains = append(gains, 1-stats.Mean(tail)/engine.TrueTime(qs[i], space.Default(), 1))
	}
	return stats.Mean(gains) * 100, true
}
