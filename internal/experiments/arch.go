package experiments

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"

	"github.com/rockhopper-db/rockhopper/internal/applevel"
	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/client"
	"github.com/rockhopper-db/rockhopper/internal/core"
	"github.com/rockhopper-db/rockhopper/internal/embedding"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

// ArchParams configures the end-to-end architecture round trip: the full
// Figure 5/7 loop over a real HTTP boundary — client inference, event
// upload, backend model retraining, app-cache computation.
type ArchParams struct {
	Iters int
	Noise noise.Model
	Seed  uint64
}

func (p *ArchParams) defaults() {
	if p.Iters == 0 {
		p.Iters = 40
	}
	if p.Noise == (noise.Model{}) {
		p.Noise = noise.Model{FL: 0.2, SL: 0.2}
	}
	if p.Seed == 0 {
		p.Seed = 777
	}
}

// ArchResult summarizes the round trip.
type ArchResult struct {
	Params ArchParams
	// DefaultMs and FinalMs are the query's true time before and after.
	DefaultMs, FinalMs float64
	ImprovementPct     float64
	// ModelTrained reports whether the backend produced a per-signature model.
	ModelTrained bool
	// AppCacheRuns is the app_cache entry's run counter after the study.
	AppCacheRuns int
	// EventFiles is the number of event files persisted.
	EventFiles int
}

// ArchRoundTrip exercises the full deployment loop on one recurrent query:
// every iteration the client infers a configuration (remote model if
// trained, local GP selector otherwise), executes on the simulated cluster,
// and ships the event file; the backend's streaming jobs retrain the model
// and refresh the app cache.
func ArchRoundTrip(p ArchParams) *ArchResult {
	p.defaults()
	space := sparksim.FullSpace()
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(p.Seed).Query(workloads.TPCDS, 2)
	emb := embedding.NewVirtual()

	st := store.New([]byte("rockhopper-signing-key"))
	srv := backend.New(space, st, "cluster-secret", p.Seed)
	hs := httptest.NewServer(srv.Handler())
	defer func() { hs.Close(); srv.Close() }()
	cli := client.New(hs.URL, "cluster-secret")

	r := stats.NewRNG(p.Seed)
	sel := &client.RemoteSelector{
		Client: cli, Space: space, User: "customer-1", Signature: q.ID,
		Fallback: core.NewSurrogateSelector(space, nil, nil, r.Split()),
	}
	cl := core.New(space, sel, r.Split())
	cl.Guardrail = nil

	artifact := applevel.ArtifactID([]byte("notebook: " + q.ID))
	var obs []sparksim.Observation
	res := &ArchResult{Params: p, DefaultMs: e.TrueTime(q, space.Default(), 1)}
	noiseRNG := r.Split()
	embVec := emb.Embed(q.Plan)
	var finals []float64
	for i := 0; i < p.Iters; i++ {
		cfg := cl.Propose(i, q.Plan.LeafInputBytes())
		o := e.Run(q, cfg, 1, noiseRNG, p.Noise)
		o.Iteration = i
		cl.Observe(o)
		obs = append(obs, o)
		// Step 6: ship the event file; the backend retrains asynchronously.
		err := cli.PostEvents(context.Background(), "customer-1", q.ID, "job-arch", []flighting.Trace{{
			QueryID: q.ID, Embedding: embVec, Config: o.Config,
			DataSize: o.DataSize, TimeMs: o.Time,
		}})
		if err != nil {
			panic(fmt.Sprintf("experiments: post events: %v", err))
		}
		// The next submission of a recurrent query arrives long after its
		// retrain has finished (Fig. 7); waiting for it here keeps the model
		// the next proposal fetches, and so the result, a function of the
		// seed rather than of goroutine timing.
		srv.Flush()
		if i >= p.Iters-p.Iters/5 {
			finals = append(finals, o.TrueTime)
		}
	}
	res.FinalMs = stats.Mean(finals)
	res.ImprovementPct = PercentImprovement(res.DefaultMs, res.FinalMs)
	if m, err := cli.FetchModel(context.Background(), "customer-1", q.ID); err == nil && m != nil {
		res.ModelTrained = true
	}
	// App completion: compute the app cache entry via the backend.
	if _, err := cli.ComputeAppCache(context.Background(), backend.AppCacheRequest{
		ArtifactID: artifact,
		Current:    space.Default(),
		Queries:    []backend.QueryHistory{{ID: q.ID, Centroid: cl.Centroid(), Observations: obs}},
	}); err != nil {
		panic(fmt.Sprintf("experiments: app cache: %v", err))
	}
	if entry, ok, _ := cli.FetchAppCache(context.Background(), artifact); ok {
		res.AppCacheRuns = entry.Runs
	}
	res.EventFiles = len(st.List("events/job-arch/"))
	return res
}

// Print renders the round-trip summary.
func (r *ArchResult) Print(w io.Writer) {
	fmt.Fprintf(w, "=== Architecture round trip (Figures 5 & 7) ===\n")
	fmt.Fprintf(w, "iterations: %d | event files: %d | model trained: %v | app-cache runs: %d\n",
		r.Params.Iters, r.EventFiles, r.ModelTrained, r.AppCacheRuns)
	fmt.Fprintf(w, "default %.0f ms → final %.0f ms (%.1f%% improvement)\n",
		r.DefaultMs, r.FinalMs, r.ImprovementPct)
}

// AppLevelParams configures the Algorithm 2 evaluation.
type AppLevelParams struct {
	QueriesPerApp int
	ExploreRuns   int
	Seed          uint64
}

func (p *AppLevelParams) defaults() {
	if p.QueriesPerApp == 0 {
		p.QueriesPerApp = 3
	}
	if p.ExploreRuns == 0 {
		p.ExploreRuns = 40
	}
	if p.Seed == 0 {
		p.Seed = 888
	}
}

// AppLevelResult compares application wall time before and after joint
// optimization.
type AppLevelResult struct {
	Params AppLevelParams
	// StartMs is the app wall time (startup + queries) at the starting
	// configuration; JointMs after Algorithm 2.
	StartMs, JointMs float64
	ImprovementPct   float64
}

// AppLevelJoint evaluates Algorithm 2: per-query surrogates are fitted from
// exploration history, the joint optimizer picks app-level settings, and the
// app is re-executed noiselessly to measure the true improvement.
func AppLevelJoint(p AppLevelParams) *AppLevelResult {
	p.defaults()
	space := sparksim.FullSpace()
	e := sparksim.NewEngine(space)
	app := workloads.NewGenerator(p.Seed).Notebook(1, p.QueriesPerApp)
	r := stats.NewRNG(p.Seed)

	start := space.With(space.Default(), sparksim.ExecutorInstances, 3)
	_, startTotal := e.RunApp(app, start, 1, r.Split(), nil)

	states := make([]applevel.QueryState, 0, len(app.Queries))
	for _, q := range app.Queries {
		var obs []sparksim.Observation
		rr := r.SplitNamed(q.ID)
		for i := 0; i < p.ExploreRuns; i++ {
			cand := space.Neighborhood(start, 0.3, 1, rr)[0]
			obs = append(obs, e.Run(q, cand, 1, rr, noise.Low))
		}
		qs, err := applevel.FitQueryState(space, q.ID, start, obs)
		if err != nil {
			panic(fmt.Sprintf("experiments: fit query state: %v", err))
		}
		states = append(states, qs)
	}
	jo := applevel.NewJointOptimizer(space, r.Split())
	jo.Beta = 0.25
	best, err := jo.Optimize(start, states)
	if err != nil {
		panic(fmt.Sprintf("experiments: joint optimize: %v", err))
	}
	_, jointTotal := e.RunApp(app, best, 1, r.Split(), nil)
	return &AppLevelResult{
		Params:         p,
		StartMs:        startTotal,
		JointMs:        jointTotal,
		ImprovementPct: PercentImprovement(startTotal, jointTotal),
	}
}

// Print renders the app-level summary.
func (r *AppLevelResult) Print(w io.Writer) {
	fmt.Fprintf(w, "=== Algorithm 2: app-level joint optimization ===\n")
	fmt.Fprintf(w, "app wall time: start %.0f ms → joint %.0f ms (%.1f%% improvement)\n",
		r.StartMs, r.JointMs, r.ImprovementPct)
}
