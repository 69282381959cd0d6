package ml

import (
	"runtime"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/testutil"
)

// TestGPPredictAllocFree pins the surrogate's inference hot path: after the
// scratch buffers warm up, PredictVar (and therefore Predict and
// ExpectedImprovement) must not allocate. Acquisition evaluates hundreds of
// candidates per tuning iteration, so a single allocation here multiplies
// across the whole loop. Skipped under -race (detector instrumentation
// allocates).
func TestGPPredictAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	rng := stats.NewRNG(21)
	const dim, n = 6, 32
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = synthPoint(rng, dim)
	}
	g := NewGP()
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	q, _ := synthPoint(rng, dim)
	// Warm the scratch buffers once.
	g.PredictVar(q)
	var sink float64
	if a := testing.AllocsPerRun(1000, func() {
		m, v := g.PredictVar(q)
		sink += m + v
	}); a != 0 {
		t.Fatalf("PredictVar allocates %v times per call; budget is 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		sink += g.ExpectedImprovement(q, 0.5, 0.01)
	}); a != 0 {
		t.Fatalf("ExpectedImprovement allocates %v times per call; budget is 0", a)
	}
	if sink == 0 {
		t.Fatal("prediction produced nothing")
	}
}

// TestUnmarshalAllocBudget pins the inference path's decode: the model's
// rows, vector and scaler slice into one backing array, so a decode costs the
// same handful of allocations at 16 training rows as at 700 (the backing
// array, the row headers, the scaler, the model). Every RemoteSelector.Select
// and every retrain's drift check pays this once.
func TestUnmarshalAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	for _, n := range []int{16, 700} {
		for _, m := range codecModels(t, stats.NewRNG(5), n, 4) {
			blob, err := Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			var sink Regressor
			if a := testing.AllocsPerRun(100, func() { sink, _ = Unmarshal(blob) }); a > 6 {
				t.Errorf("%T n=%d: Unmarshal allocates %v times per call; budget is 6", m, n, a)
			}
			if sink == nil {
				t.Fatalf("%T n=%d: blob did not decode", m, n)
			}
		}
	}
}

// TestGPObserveIsNotARefit pins the incremental update's cost class by the
// bytes it allocates, which, unlike its speed, does not depend on the
// machine or GOMAXPROCS. An Observe + ForgetLast pair at n = 1024 borders
// and trims the existing factor, allocating one kernel row (8·n bytes); a
// refit allocates the n×n Gram/factor matrix, 8·n² bytes = 8 MiB. Not
// parallel: TotalAlloc is process-wide.
func TestGPObserveIsNotARefit(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	const dim, n, pairs = 8, 1024, 10
	rng := stats.NewRNG(1024)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = synthPoint(rng, dim)
	}
	g := NewGP()
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	q, yq := synthPoint(rng, dim)
	pair := func() {
		if err := g.Observe(q, yq); err != nil {
			t.Fatal(err)
		}
		if err := g.ForgetLast(); err != nil {
			t.Fatal(err)
		}
	}
	pair() // the first Observe reserves the factor's room for one more row
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	if perPair, budget := (after.TotalAlloc-before.TotalAlloc)/pairs, uint64(64*n); perPair > budget {
		t.Fatalf("Observe+ForgetLast at n=%d allocates %d B per pair; budget is %d B (a refit allocates %d B)", n, perPair, budget, 8*n*n)
	}
}
