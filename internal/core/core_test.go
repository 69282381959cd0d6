package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

func testEngineAndQuery() (*sparksim.Engine, *sparksim.Query) {
	e := sparksim.NewEngine(sparksim.QuerySpace())
	// Query 2 has ≈28% tuning headroom at the default configuration, so
	// convergence is observable; some signatures (e.g. q4) are nearly flat.
	q := workloads.NewGenerator(99).Query(workloads.TPCDS, 2)
	return e, q
}

// runLoop drives a tuner for iters iterations at constant data size and
// returns the noiseless time trajectory.
func runLoop(t *testing.T, e *sparksim.Engine, q *sparksim.Query, tn tuners.Tuner, iters int, nm noise.Model, seed uint64) []float64 {
	t.Helper()
	r := stats.NewRNG(seed)
	traj := make([]float64, iters)
	for i := 0; i < iters; i++ {
		cfg := tn.Propose(i, q.Plan.LeafInputBytes())
		o := e.Run(q, cfg, 1, r, nm)
		o.Iteration = i
		tn.Observe(o)
		traj[i] = o.TrueTime
	}
	return traj
}

func TestCentroidFirstIterationIsStart(t *testing.T) {
	e, _ := testEngineAndQuery()
	cl := New(e.Space, RandomSelector{RNG: stats.NewRNG(1)}, stats.NewRNG(2))
	cfg := cl.Propose(0, 0)
	def := e.Space.Default()
	for i := range cfg {
		if cfg[i] != def[i] {
			t.Fatalf("iteration 0 must run the default: %v vs %v", cfg, def)
		}
	}
}

func TestCentroidRespectsCustomStart(t *testing.T) {
	e, _ := testEngineAndQuery()
	start := e.Space.With(e.Space.Default(), sparksim.ShufflePartitions, 1500)
	cl := New(e.Space, RandomSelector{RNG: stats.NewRNG(1)}, stats.NewRNG(2))
	cl.Start = start
	cfg := cl.Propose(0, 0)
	if e.Space.Get(cfg, sparksim.ShufflePartitions) != 1500 {
		t.Fatal("custom start ignored")
	}
}

func TestCentroidStaysWithinBeta(t *testing.T) {
	// Regression avoidance: every proposal must stay within β of the
	// current centroid in normalized space.
	e, q := testEngineAndQuery()
	cl := New(e.Space, RandomSelector{RNG: stats.NewRNG(3)}, stats.NewRNG(4))
	cl.Guardrail = nil
	r := stats.NewRNG(5)
	for i := 0; i < 40; i++ {
		center := e.Space.Normalize(cl.Centroid())
		cfg := cl.Propose(i, q.Plan.LeafInputBytes())
		u := e.Space.Normalize(cfg)
		for j := range u {
			if math.Abs(u[j]-center[j]) > cl.Params.Beta+0.02 {
				t.Fatalf("iter %d dim %d: proposal strayed %g beyond beta", i, j, math.Abs(u[j]-center[j]))
			}
		}
		cl.Observe(e.Run(q, cfg, 1, r, noise.Low))
	}
}

func TestCentroidConvergesNoiseless(t *testing.T) {
	e, q := testEngineAndQuery()
	sel := NewSurrogateSelector(e.Space, nil, nil, stats.NewRNG(6))
	cl := New(e.Space, sel, stats.NewRNG(7))
	cl.Guardrail = nil
	traj := runLoop(t, e, q, cl, 80, noise.None, 8)
	start := traj[0]
	final := stats.Mean(traj[70:])
	if final >= start*0.98 {
		t.Fatalf("no convergence: start=%g final=%g", start, final)
	}
}

func TestCentroidRobustUnderHighNoise(t *testing.T) {
	// The headline claim (Figure 10): CL converges under FL=1, SL=1 where
	// single-observation methods stall. Compare the final true-time level
	// against the default config.
	e, q := testEngineAndQuery()
	def := e.TrueTime(q, e.Space.Default(), 1)
	var finals []float64
	for run := uint64(0); run < 5; run++ {
		sel := NewSurrogateSelector(e.Space, nil, nil, stats.NewRNG(10+run))
		cl := New(e.Space, sel, stats.NewRNG(20+run))
		cl.Guardrail = nil
		traj := runLoop(t, e, q, cl, 120, noise.High, 30+run)
		finals = append(finals, stats.Mean(traj[100:]))
	}
	med := stats.Median(finals)
	if med > def*1.02 {
		t.Fatalf("CL regressed under noise: median final %g vs default %g", med, def)
	}
}

func TestFindBestModes(t *testing.T) {
	e, _ := testEngineAndQuery()
	space := e.Space
	mk := func(part float64, size, time float64) sparksim.Observation {
		return sparksim.Observation{
			Config:   space.With(space.Default(), sparksim.ShufflePartitions, part),
			DataSize: size,
			Time:     time,
		}
	}
	// Candidate A ran on tiny data and looks fastest raw; candidate B has
	// the better time per byte at comparable sizes.
	w := []sparksim.Observation{
		mk(100, 1e9, 1000), // 1 µs/KB
		mk(400, 10e9, 4000),
		mk(800, 10e9, 9000),
	}
	cl := New(space, RandomSelector{RNG: stats.NewRNG(1)}, stats.NewRNG(2))

	cl.Params.FindBest = FindBestRaw
	if got := cl.FindBest(w); got.Time != 1000 {
		t.Fatalf("raw should pick the fastest run, got %g", got.Time)
	}
	cl.Params.FindBest = FindBestNormalized
	if got := cl.FindBest(w); got.Time != 4000 {
		t.Fatalf("normalized should pick best time/size, got %g", got.Time)
	}
	cl.Params.FindBest = FindBestModel
	got := cl.FindBest(w)
	if got.Time == 0 {
		t.Fatal("model-based find best returned nothing")
	}
}

func TestFindBestModelPrefersSizeAdjusted(t *testing.T) {
	// Build a window where config X is genuinely better (lower time per
	// byte) but always ran on larger inputs. v1 picks the bad config purely
	// because its runs saw less data; v3 must recover X by comparing at a
	// fixed reference size.
	e, _ := testEngineAndQuery()
	space := e.Space
	r := stats.NewRNG(11)
	mk := func(p, gb, rateMsPerGB float64) sparksim.Observation {
		return sparksim.Observation{
			Config:   space.With(space.Default(), sparksim.ShufflePartitions, p),
			DataSize: gb * 1e9,
			Time:     rateMsPerGB * gb,
		}
	}
	var w []sparksim.Observation
	// good: 1000 ms/GB, mostly big inputs but with mid-size runs so the
	// model can learn its size slope; bad: 2000 ms/GB, only small inputs.
	for _, gb := range []float64{1.0, 1.05, 1.8, 2.0, 2.2, 2.4} {
		w = append(w, mk(64, gb, 1000))
	}
	for _, gb := range []float64{0.4, 0.45, 0.5, 0.55} {
		w = append(w, mk(1800, gb, 2000))
	}
	for _, gb := range []float64{1.3, 1.2} {
		w = append(w, mk(400, gb, 1400))
	}
	cl := New(space, RandomSelector{RNG: r}, r)
	cl.Params.FindBest = FindBestRaw
	rawPick := cl.FindBest(w)
	cl.Params.FindBest = FindBestModel
	modelPick := cl.FindBest(w)
	rawP := space.Get(rawPick.Config, sparksim.ShufflePartitions)
	modelP := space.Get(modelPick.Config, sparksim.ShufflePartitions)
	if rawP != 1800 {
		t.Fatalf("expected raw pick to be fooled by small data, got P=%g", rawP)
	}
	if modelP == 1800 {
		t.Fatalf("model pick should not be fooled: P=%g", modelP)
	}
}

func TestFindGradientLinearSigns(t *testing.T) {
	// Time strictly increases with shuffle partitions in the window: the
	// descent direction for that dimension must be positive (decrease it).
	e, _ := testEngineAndQuery()
	space := e.Space
	var w []sparksim.Observation
	for i, p := range []float64{100, 200, 400, 800, 1200, 1600, 1900, 600, 300, 1000} {
		cfg := space.With(space.Default(), sparksim.ShufflePartitions, p)
		w = append(w, sparksim.Observation{Config: cfg, DataSize: 1e9, Time: 1000 + 3*p + float64(i%2)*10})
	}
	cl := New(space, RandomSelector{RNG: stats.NewRNG(1)}, stats.NewRNG(2))
	cl.Params.Gradient = GradientLinear
	best := cl.FindBest(w)
	delta := cl.FindGradient(w, best)
	idx := space.Index(sparksim.ShufflePartitions)
	if delta[idx] != 1 {
		t.Fatalf("gradient should point up (descend by decreasing): %v", delta)
	}
}

func TestFindGradientInsufficientWindow(t *testing.T) {
	e, _ := testEngineAndQuery()
	cl := New(e.Space, RandomSelector{RNG: stats.NewRNG(1)}, stats.NewRNG(2))
	w := []sparksim.Observation{{Config: e.Space.Default(), DataSize: 1, Time: 1}}
	delta := cl.FindGradient(w, w[0])
	for _, d := range delta {
		if d != 0 {
			t.Fatalf("small window should yield zero gradient: %v", delta)
		}
	}
}

func TestLevelSelectorPercentiles(t *testing.T) {
	e, q := testEngineAndQuery()
	oracle := func(c sparksim.Config) float64 { return e.TrueTime(q, c, 1) }
	r := stats.NewRNG(13)
	cands := e.Space.Neighborhood(e.Space.Default(), 0.3, 40, r)

	pick := func(level int) float64 {
		idx := LevelSelector{Level: level, True: oracle}.Select(cands, nil, 0)
		return oracle(cands[idx])
	}
	l1, l5, l9 := pick(1), pick(5), pick(9)
	if !(l1 <= l5 && l5 <= l9) {
		t.Fatalf("levels should order by true time: L1=%g L5=%g L9=%g", l1, l5, l9)
	}
}

func TestSurrogateSelectorFallsBackWithoutData(t *testing.T) {
	e, _ := testEngineAndQuery()
	sel := NewSurrogateSelector(e.Space, nil, nil, stats.NewRNG(1))
	cands := []sparksim.Config{e.Space.Default(), e.Space.Default()}
	if idx := sel.Select(cands, nil, 0); idx != 0 {
		t.Fatalf("empty history should select index 0, got %d", idx)
	}
	if idx := sel.Select(nil, nil, 0); idx != -1 {
		t.Fatal("empty candidate set should return -1")
	}
}

func TestSurrogateSelectorUsesWarmStart(t *testing.T) {
	// With warm-start data describing the response surface, the selector
	// must immediately avoid a known-terrible candidate.
	e, q := testEngineAndQuery()
	r := stats.NewRNG(17)
	var warm []tuners.BaselinePoint
	for i := 0; i < 120; i++ {
		cfg := e.Space.Random(r)
		warm = append(warm, tuners.BaselinePoint{
			Config:   cfg,
			DataSize: q.Plan.LeafInputBytes(),
			Time:     e.TrueTime(q, cfg, 1),
		})
	}
	sel := NewSurrogateSelector(e.Space, nil, warm, r)
	good, _ := e.OptimalConfig(q, 1, 10)
	bad := e.Space.With(e.Space.Default(), sparksim.ShufflePartitions, 8)
	bad = e.Space.With(bad, sparksim.MaxPartitionBytes, 1<<20)
	cands := []sparksim.Config{bad, good}
	if idx := sel.Select(cands, nil, q.Plan.LeafInputBytes()); idx != 1 {
		t.Fatalf("warm-started selector picked the bad candidate (idx %d)", idx)
	}
}

func TestGuardrailDisablesOnRegression(t *testing.T) {
	g := NewGuardrail()
	var h tuners.History
	disabled := false
	for i := 0; i < 60 && !disabled; i++ {
		h.Add(sparksim.Observation{DataSize: 1e9, Time: 1000 * math.Pow(1.1, float64(i))})
		disabled = g.Observe(&h)
	}
	if !disabled {
		t.Fatal("steep sustained regression should disable autotuning")
	}
}

func TestGuardrailKeepsImprovingQuery(t *testing.T) {
	g := NewGuardrail()
	var h tuners.History
	r := stats.NewRNG(19)
	for i := 0; i < 100; i++ {
		base := 2000 - 10*float64(i) // improving
		h.Add(sparksim.Observation{DataSize: 1e9, Time: noise.Low.Inject(r, base)})
		if g.Observe(&h) {
			t.Fatalf("guardrail fired on an improving query at iteration %d", i)
		}
	}
}

func TestGuardrailRespectsMinIterations(t *testing.T) {
	g := NewGuardrail()
	var h tuners.History
	for i := 0; i < g.MinIterations; i++ {
		h.Add(sparksim.Observation{DataSize: 1e9, Time: 1000 * math.Pow(1.3, float64(i))})
		if g.Observe(&h) {
			t.Fatalf("guardrail fired before the minimum budget at iteration %d", i)
		}
	}
}

func TestDisabledCentroidRevertsToDefault(t *testing.T) {
	e, q := testEngineAndQuery()
	cl := New(e.Space, RandomSelector{RNG: stats.NewRNG(1)}, stats.NewRNG(2))
	// Force regression so the guardrail trips: replace observations with a
	// steeply growing series.
	for i := 0; i < 60 && !cl.Disabled(); i++ {
		cfg := cl.Propose(i, q.Plan.LeafInputBytes())
		cl.Observe(sparksim.Observation{Config: cfg, DataSize: 1e9, Time: 500 * math.Pow(1.12, float64(i))})
	}
	if !cl.Disabled() {
		t.Fatal("centroid learner should have been disabled")
	}
	cfg := cl.Propose(99, 0)
	def := e.Space.Default()
	for i := range cfg {
		if cfg[i] != def[i] {
			t.Fatal("disabled learner must propose the default configuration")
		}
	}
}

func TestHistoryWindow(t *testing.T) {
	var h tuners.History
	for i := 0; i < 10; i++ {
		h.Add(sparksim.Observation{Time: float64(i)})
	}
	if len(h.Window(3)) != 3 || h.Window(3)[0].Time != 7 {
		t.Fatal("window wrong")
	}
	if len(h.Window(0)) != 10 || len(h.Window(99)) != 10 {
		t.Fatal("window bounds wrong")
	}
	best, ok := h.BestObserved()
	if !ok || best.Time != 0 {
		t.Fatal("best observed wrong")
	}
}

// Property: the centroid always stays in the unit hypercube and proposals
// are always legal configurations, for any sequence of noisy observations.
func TestPropCentroidBounded(t *testing.T) {
	e, q := testEngineAndQuery()
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		cl := New(e.Space, RandomSelector{RNG: r.Split()}, r.Split())
		cl.Guardrail = nil
		nr := r.Split()
		for i := 0; i < 25; i++ {
			cfg := cl.Propose(i, q.Plan.LeafInputBytes())
			for j, p := range e.Space.Params {
				if cfg[j] < p.Min || cfg[j] > p.Max {
					return false
				}
			}
			o := e.Run(q, cfg, 0.5+nr.Float64()*2, nr, noise.High)
			o.Iteration = i
			cl.Observe(o)
			u := e.Space.Normalize(cl.Centroid())
			for _, v := range u {
				if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: FIND_GRADIENT only ever returns per-dimension directions in
// {−1, 0, +1}, for all modes and windows.
func TestPropGradientDirections(t *testing.T) {
	e, q := testEngineAndQuery()
	f := func(seed uint64, modeBit bool) bool {
		r := stats.NewRNG(seed)
		cl := New(e.Space, RandomSelector{RNG: r.Split()}, r.Split())
		if modeBit {
			cl.Params.Gradient = GradientLinear
		}
		n := 3 + r.Intn(20)
		w := make([]sparksim.Observation, n)
		for i := range w {
			cfg := e.Space.Random(r)
			w[i] = sparksim.Observation{
				Config: cfg, DataSize: 1e8 + r.Float64()*1e10,
				Time: e.TrueTime(q, cfg, 1) * (1 + r.Float64()),
			}
		}
		best := cl.FindBest(w)
		for _, d := range cl.FindGradient(w, best) {
			if d != -1 && d != 0 && d != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore is lossless for the observable state.
func TestPropSnapshotRoundTrip(t *testing.T) {
	e, q := testEngineAndQuery()
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		cl := New(e.Space, RandomSelector{RNG: r.Split()}, r.Split())
		nr := r.Split()
		iters := 5 + r.Intn(20)
		for i := 0; i < iters; i++ {
			cfg := cl.Propose(i, q.Plan.LeafInputBytes())
			o := e.Run(q, cfg, 1, nr, noise.Low)
			o.Iteration = i
			cl.Observe(o)
		}
		blob, err := EncodeSnapshot(cl.Snapshot())
		if err != nil {
			return false
		}
		snap, err := DecodeSnapshot(blob)
		if err != nil {
			return false
		}
		back := New(e.Space, RandomSelector{RNG: stats.NewRNG(1)}, stats.NewRNG(2))
		back.Restore(snap)
		if back.Iterations() != cl.Iterations() || back.Disabled() != cl.Disabled() {
			return false
		}
		a, b := cl.Centroid(), back.Centroid()
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
