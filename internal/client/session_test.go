package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

func TestSessionValidation(t *testing.T) {
	space := sparksim.QuerySpace()
	q := workloads.NewGenerator(1).Query(workloads.TPCDS, 2)
	_, c := newStack(t, space)
	if _, err := NewSession(nil, space, "u", "j", q.Plan, 1); err == nil {
		t.Fatal("nil client should error")
	}
	if _, err := NewSession(c, space, "", "j", q.Plan, 1); err == nil {
		t.Fatal("empty user should error")
	}
	if _, err := NewSession(c, space, "u", "", q.Plan, 1); err == nil {
		t.Fatal("empty job should error")
	}
	s, err := NewSession(c, space, "u", "j", q.Plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Signature != sparksim.Signature(q.Plan) {
		t.Fatal("signature mismatch")
	}
}

func TestSessionEndToEnd(t *testing.T) {
	space := sparksim.QuerySpace()
	srv, c := newStack(t, space)
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(1).Query(workloads.TPCDS, 2)

	sess, err := NewSession(c, space, "u1", "job-sess", q.Plan, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(8)
	size := q.Plan.LeafInputBytes()
	for i := 0; i < 20; i++ {
		cfg := sess.Recommend(size)
		o := e.Run(q, cfg, 1, r, noise.Low)
		stages, _ := e.Explain(q, cfg, 1)
		if err := sess.Complete(context.Background(), o, stages); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Iterations() != 20 {
		t.Fatalf("iterations = %d", sess.Iterations())
	}
	if sess.Dashboard().Len() != 20 {
		t.Fatalf("dashboard events = %d", sess.Dashboard().Len())
	}
	srv.Flush()
	// The backend must have received every event file and trained a model
	// under the session's signature.
	if n := len(srv.Store.List("events/job-sess/")); n != 20 {
		t.Fatalf("event files = %d", n)
	}
	if _, err := srv.Store.GetInternal(store.ModelPath("u1", sess.Signature)); err != nil {
		t.Fatal("backend did not train the per-signature model")
	}
	if len(sess.History()) != 20 {
		t.Fatalf("history = %d", len(sess.History()))
	}
}

func TestFinishAppPopulatesCache(t *testing.T) {
	space := sparksim.FullSpace()
	_, c := newStack(t, space)
	e := sparksim.NewEngine(space)
	nb := workloads.NewGenerator(2).Notebook(4, 2)
	r := stats.NewRNG(9)

	var sessions []*Session
	for _, q := range nb.Queries {
		sess, err := NewSession(c, space, "u1", "job-app", q.Plan, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			cfg := sess.Recommend(q.Plan.LeafInputBytes())
			if err := sess.Complete(context.Background(), e.Run(q, cfg, 1, r, noise.Low), nil); err != nil {
				t.Fatal(err)
			}
		}
		sessions = append(sessions, sess)
	}
	if err := FinishApp(context.Background(), c, nb.ArtifactID, space.Default(), sessions...); err != nil {
		t.Fatal(err)
	}
	entry, ok, err := c.FetchAppCache(context.Background(), nb.ArtifactID)
	if err != nil || !ok {
		t.Fatalf("app cache miss after FinishApp: %v %v", ok, err)
	}
	if len(entry.Config) != space.Dim() {
		t.Fatal("cached config malformed")
	}
	if err := FinishApp(context.Background(), c, "x", space.Default()); err == nil {
		t.Fatal("FinishApp without sessions should error")
	}
}

// recurringTraces runs n runs over one fixed set of 8 configurations of q —
// a production signature re-runs its neighbourhood — with fresh noise per
// runSeed, every time scaled by shift.
func recurringTraces(e *sparksim.Engine, q *sparksim.Query, n int, runSeed uint64, shift float64) []flighting.Trace {
	cfgRNG := stats.NewRNG(99)
	cfgs := make([]sparksim.Config, 8)
	for i := range cfgs {
		cfgs[i] = e.Space.Random(cfgRNG)
	}
	r := stats.NewRNG(runSeed)
	out := make([]flighting.Trace, n)
	for i := range out {
		o := e.Run(q, cfgs[i%len(cfgs)], 1, r, noise.Low)
		out[i] = flighting.Trace{QueryID: q.ID, Config: o.Config, DataSize: o.DataSize, TimeMs: o.Time * shift}
	}
	return out
}

// TestGuardrailTripAttribution: a session's guardrail revert is attributed
// to drift exactly when the backend's detector for the session's signature
// has tripped. The backend's history for the signature is seeded first —
// a model, a stationary baseline, then (for "drift") a 1.6x cost shift —
// and the session then regresses 12 % a run until its guardrail reverts.
// The session's client holds a wrong cluster secret, so its own runs never
// reach the backend (Complete reports that, and the local state updates
// regardless) and the signature's state stays the seeded one:
// GET /api/explain needs no credential.
func TestGuardrailTripAttribution(t *testing.T) {
	for _, tc := range []struct {
		cause string
		shift float64
	}{{"drift", 1.6}, {"stationary", 1}} {
		t.Run(tc.cause, func(t *testing.T) {
			space := sparksim.QuerySpace()
			srv, c := newStack(t, space)
			e := sparksim.NewEngine(space)
			q := workloads.NewGenerator(1).Query(workloads.TPCDS, 2)
			sig := sparksim.Signature(q.Plan)
			ctx := context.Background()
			for i, batch := range [][]flighting.Trace{
				recurringTraces(e, q, 8, 1, 1), recurringTraces(e, q, 8, 2, 1), recurringTraces(e, q, 16, 3, tc.shift),
			} {
				if err := c.PostEvents(ctx, "u1", sig, fmt.Sprintf("seed-%d", i), batch); err != nil {
					t.Fatal(err)
				}
				srv.Flush()
			}
			if st, ok := srv.Explain("u1", sig); !ok || st.Drifting != (tc.cause == "drift") {
				t.Fatalf("seeded signature state %+v (found %v), want drifting=%v", st, ok, tc.cause == "drift")
			}

			noPost := New(c.BaseURL, "wrong-secret")
			noPost.Metrics = telemetry.NewRegistry()
			sess, err := NewSession(noPost, space, "u1", "job-trip", q.Plan, 3)
			if err != nil {
				t.Fatal(err)
			}
			size := q.Plan.LeafInputBytes()
			for i := 0; i < 80 && !sess.Disabled(); i++ {
				o := sparksim.Observation{Config: sess.Recommend(size), DataSize: size, Time: 500 * math.Pow(1.12, float64(i))}
				if err := sess.Complete(ctx, o, nil); err == nil {
					t.Fatal("a session with a wrong cluster secret posted its run")
				}
			}
			if !sess.Disabled() {
				t.Fatal("the regressing session's guardrail never reverted")
			}
			for _, cause := range []string{"drift", "stationary", "unknown"} {
				want := 0.0
				if cause == tc.cause {
					want = 1
				}
				if got := noPost.tele().trips.With(cause).Value(); got != want {
					t.Errorf("trips{cause=%q} = %v, want %v", cause, got, want)
				}
			}
		})
	}
}

// offline is a transport that reaches no backend.
type offline struct{}

func (offline) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("offline")
}

// liveHeap is the heap still reachable after full collections: two, so
// that what sync.Pools cached is dropped too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSessionKeepsEachRunOnce: a session keeps one record of each run, in
// its learner's history; its dashboard reads the runs from there and keeps
// only stage metrics, and its guardrail fits over the history's window.
// The heap a session retains per run, over the 40 runs after its first
// (which pays the session's fixed state), stays within 120 B with or
// without a stage breakdown (the benchmark loop reports none); a first
// session pays the process's one-time costs. The client reaches no backend,
// so nothing but the session's own state outlives a run.
func TestSessionKeepsEachRunOnce(t *testing.T) {
	space := sparksim.QuerySpace()
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(1).Query(workloads.TPCDS, 2)
	c := New("http://backend.invalid", secret)
	c.HTTP = &http.Client{Transport: offline{}}
	c.Retry = resilience.Policy{MaxAttempts: 1}
	for _, tc := range []struct {
		name   string
		stages bool
		budget float64
	}{{"warm-up", true, math.Inf(1)}, {"no-stages", false, 120}, {"stages", true, 120}} {
		sess, err := NewSession(c, space, "u", "job-heap", q.Plan, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRNG(2)
		size := q.Plan.LeafInputBytes()
		run := func() {
			cfg := sess.Recommend(size)
			var stages []sparksim.StageStat
			if tc.stages {
				stages, _ = e.Explain(q, cfg, 1)
			}
			if err := sess.Complete(context.Background(), e.Run(q, cfg, 1, r, noise.Low), stages); err == nil {
				t.Fatal("an offline client posted a run")
			}
		}
		run()
		before := liveHeap()
		const runs = 40
		for i := 0; i < runs; i++ {
			run()
		}
		after := liveHeap()
		if sess.Iterations() != runs+1 || sess.Dashboard().Len() != runs+1 {
			t.Fatalf("%s: %d iterations, %d dashboard events, want %d", tc.name, sess.Iterations(), sess.Dashboard().Len(), runs+1)
		}
		perRun := (float64(after) - float64(before)) / runs
		t.Logf("%s: %.0f B retained per run", tc.name, perRun)
		if perRun > tc.budget {
			t.Errorf("%s: a session retains %.0f B per run, budget %.0f B", tc.name, perRun, tc.budget)
		}
	}
}
