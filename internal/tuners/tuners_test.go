package tuners

import (
	"math"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

func setup() (*sparksim.Engine, *sparksim.Query) {
	e := sparksim.NewEngine(sparksim.QuerySpace())
	q := workloads.NewGenerator(99).Query(workloads.TPCDS, 2)
	return e, q
}

func drive(e *sparksim.Engine, q *sparksim.Query, tn Tuner, iters int, nm noise.Model, seed uint64) []float64 {
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

func TestAllTunersStartAtDefault(t *testing.T) {
	e, _ := setup()
	r := stats.NewRNG(1)
	for _, tn := range []Tuner{
		NewRandomSearch(e.Space, r.Split()),
		NewBO(e.Space, r.Split()),
		NewFLOW2(e.Space, r.Split()),
		NewHillClimb(e.Space, r.Split()),
	} {
		cfg := tn.Propose(0, 0)
		def := e.Space.Default()
		for i := range cfg {
			if cfg[i] != def[i] {
				t.Fatalf("%s iteration 0 should be default", tn.Name())
			}
		}
	}
}

func TestProposalsAreLegal(t *testing.T) {
	e, q := setup()
	r := stats.NewRNG(2)
	for _, tn := range []Tuner{
		NewRandomSearch(e.Space, r.Split()),
		NewBO(e.Space, r.Split()),
		NewFLOW2(e.Space, r.Split()),
		NewHillClimb(e.Space, r.Split()),
	} {
		rr := stats.NewRNG(3)
		for i := 0; i < 30; i++ {
			cfg := tn.Propose(i, q.Plan.LeafInputBytes())
			for j, p := range e.Space.Params {
				if cfg[j] < p.Min || cfg[j] > p.Max {
					t.Fatalf("%s proposed illegal %s = %g", tn.Name(), p.Name, cfg[j])
				}
			}
			tn.Observe(e.Run(q, cfg, 1, rr, noise.Low))
		}
	}
}

func TestBOImprovesNoiseless(t *testing.T) {
	e, q := setup()
	bo := NewBO(e.Space, stats.NewRNG(4))
	traj := drive(e, q, bo, 60, noise.None, 5)
	def := traj[0]
	best := stats.Min(traj)
	if best >= def*0.95 {
		t.Fatalf("BO found nothing: default=%g best=%g", def, best)
	}
}

func TestBODegradesUnderHighNoise(t *testing.T) {
	// The Figure 2 phenomenon: under FL=1/SL=1 noise, vanilla BO's
	// trajectory keeps visiting bad configurations late into the run; its
	// recent true-time spread stays wide compared to a noiseless run.
	e, q := setup()
	clean := drive(e, q, NewBO(e.Space, stats.NewRNG(6)), 80, noise.None, 7)
	noisy := drive(e, q, NewBO(e.Space, stats.NewRNG(6)), 80, noise.High, 7)
	cleanSpread := stats.Quantile(clean[40:], 0.95) - stats.Quantile(clean[40:], 0.05)
	noisySpread := stats.Quantile(noisy[40:], 0.95) - stats.Quantile(noisy[40:], 0.05)
	if noisySpread <= cleanSpread {
		t.Fatalf("noise should widen BO's late trajectory: clean=%g noisy=%g", cleanSpread, noisySpread)
	}
}

func TestCBOWarmStartHelpsEarly(t *testing.T) {
	e, q := setup()
	r := stats.NewRNG(8)
	// Warm data: the true surface sampled at random configs for the same
	// query (idealised transfer).
	var warm []BaselinePoint
	ctx := []float64{1, 2} // fixed toy context
	for i := 0; i < 150; i++ {
		cfg := e.Space.Random(r)
		warm = append(warm, BaselinePoint{
			Context: ctx, Config: cfg,
			DataSize: q.Plan.LeafInputBytes(),
			Time:     e.TrueTime(q, cfg, 1),
		})
	}
	cold := drive(e, q, NewBO(e.Space, stats.NewRNG(9)), 15, noise.None, 10)
	warmT := drive(e, q, NewCBO(e.Space, stats.NewRNG(9), ctx, warm), 15, noise.None, 10)
	if stats.Mean(warmT[1:]) >= stats.Mean(cold[1:]) {
		t.Fatalf("warm start should help early: warm=%g cold=%g",
			stats.Mean(warmT[1:]), stats.Mean(cold[1:]))
	}
}

func TestFLOW2DescendsNoiseless(t *testing.T) {
	e, q := setup()
	f := NewFLOW2(e.Space, stats.NewRNG(11))
	traj := drive(e, q, f, 120, noise.None, 12)
	if stats.Mean(traj[100:]) >= traj[0]*0.97 {
		t.Fatalf("FLOW2 failed to descend noiselessly: start=%g final=%g", traj[0], stats.Mean(traj[100:]))
	}
	if f.Incumbent() == nil {
		t.Fatal("incumbent not tracked")
	}
}

func TestFLOW2MisledByNoise(t *testing.T) {
	// A spike on the incumbent's own evaluation can anchor FLOW2 to a bad
	// point; statistically its noisy improvement should be much smaller
	// than its noiseless improvement (the paper's core criticism).
	e, q := setup()
	var cleanGain, noisyGain []float64
	for s := uint64(0); s < 6; s++ {
		clean := drive(e, q, NewFLOW2(e.Space, stats.NewRNG(100+s)), 100, noise.None, 200+s)
		noisy := drive(e, q, NewFLOW2(e.Space, stats.NewRNG(100+s)), 100, noise.High, 300+s)
		cleanGain = append(cleanGain, clean[0]-stats.Mean(clean[80:]))
		noisyGain = append(noisyGain, noisy[0]-stats.Mean(noisy[80:]))
	}
	if stats.Median(noisyGain) >= stats.Median(cleanGain) {
		t.Fatalf("noise should hurt FLOW2: clean gain=%g noisy gain=%g",
			stats.Median(cleanGain), stats.Median(noisyGain))
	}
}

func TestHillClimbMovesOnImprovement(t *testing.T) {
	e, q := setup()
	h := NewHillClimb(e.Space, stats.NewRNG(13))
	drive(e, q, h, 60, noise.None, 14)
	if h.Incumbent() == nil {
		t.Fatal("no incumbent")
	}
	inc := e.TrueTime(q, h.Incumbent(), 1)
	def := e.TrueTime(q, e.Space.Default(), 1)
	if inc > def {
		t.Fatalf("noiseless hill climbing should not end worse than default: %g vs %g", inc, def)
	}
}

func TestFLOW2CustomStart(t *testing.T) {
	e, _ := setup()
	start := e.Space.With(e.Space.Default(), sparksim.ShufflePartitions, 1777)
	f := NewFLOW2(e.Space, stats.NewRNG(15))
	f.Start = start
	cfg := f.Propose(0, 0)
	if e.Space.Get(cfg, sparksim.ShufflePartitions) != 1777 {
		t.Fatal("custom start ignored")
	}
}

func TestConfigFeaturesLayout(t *testing.T) {
	e, _ := setup()
	cfg := e.Space.Default()
	ctx := []float64{7, 8}
	x := ConfigFeatures(e.Space, ctx, cfg, 1e9)
	if len(x) != 2+e.Space.Dim()+1 {
		t.Fatalf("feature width = %d", len(x))
	}
	if x[0] != 7 || x[1] != 8 {
		t.Fatal("context must lead the feature vector")
	}
	if math.Abs(x[len(x)-1]-math.Log1p(1e9)) > 1e-12 {
		t.Fatal("data size must be log-transformed at the tail")
	}
	bare := ConfigFeatures(e.Space, nil, cfg, 0)
	if len(bare) != e.Space.Dim()+1 {
		t.Fatal("nil context layout wrong")
	}
}

func TestRandomSearchExplores(t *testing.T) {
	e, _ := setup()
	rs := NewRandomSearch(e.Space, stats.NewRNG(16))
	seen := map[float64]bool{}
	for i := 1; i < 30; i++ {
		cfg := rs.Propose(i, 0)
		seen[e.Space.Get(cfg, sparksim.ShufflePartitions)] = true
	}
	if len(seen) < 20 {
		t.Fatalf("random search insufficiently diverse: %d distinct", len(seen))
	}
}

func TestOPPerTuneDescendsNoiseless(t *testing.T) {
	e, q := setup()
	op := NewOPPerTune(e.Space, stats.NewRNG(31))
	traj := drive(e, q, op, 200, noise.None, 32)
	final := e.TrueTime(q, op.Center(), 1)
	if final >= traj[0]*0.97 {
		t.Fatalf("OPPerTune center should descend noiselessly: start=%g center=%g", traj[0], final)
	}
}

func TestOPPerTuneProposalsLegal(t *testing.T) {
	e, q := setup()
	op := NewOPPerTune(e.Space, stats.NewRNG(33))
	r := stats.NewRNG(34)
	for i := 0; i < 40; i++ {
		cfg := op.Propose(i, 0)
		for j, p := range e.Space.Params {
			if cfg[j] < p.Min || cfg[j] > p.Max {
				t.Fatalf("illegal %s = %g", p.Name, cfg[j])
			}
		}
		op.Observe(e.Run(q, cfg, 1, r, noise.Low))
	}
}

func TestOPPerTuneHurtByNoise(t *testing.T) {
	// The two-point gradient is built from two noisy runs; under high noise
	// the center should make much less progress than noiselessly.
	e, q := setup()
	var cleanGain, noisyGain []float64
	def := e.TrueTime(q, e.Space.Default(), 1)
	for s := uint64(0); s < 5; s++ {
		opClean := NewOPPerTune(e.Space, stats.NewRNG(400+s))
		drive(e, q, opClean, 150, noise.None, 500+s)
		cleanGain = append(cleanGain, def-e.TrueTime(q, opClean.Center(), 1))
		opNoisy := NewOPPerTune(e.Space, stats.NewRNG(400+s))
		drive(e, q, opNoisy, 150, noise.High, 600+s)
		noisyGain = append(noisyGain, def-e.TrueTime(q, opNoisy.Center(), 1))
	}
	if stats.Median(noisyGain) >= stats.Median(cleanGain) {
		t.Fatalf("noise should hurt the bandit: clean=%g noisy=%g",
			stats.Median(cleanGain), stats.Median(noisyGain))
	}
}

func TestOPPerTuneCustomStart(t *testing.T) {
	e, _ := setup()
	start := e.Space.With(e.Space.Default(), sparksim.ShufflePartitions, 1234)
	op := NewOPPerTune(e.Space, stats.NewRNG(35))
	op.Start = start
	cfg := op.Propose(0, 0)
	if e.Space.Get(cfg, sparksim.ShufflePartitions) != 1234 {
		t.Fatal("custom start ignored")
	}
}

func TestHistoryEmpty(t *testing.T) {
	var h History
	if _, ok := h.BestObserved(); ok {
		t.Fatal("empty history should have no best")
	}
	if len(h.Window(5)) != 0 {
		t.Fatal("empty window should be empty")
	}
}

// A history grows by an eighth, not by doubling: past the first few dozen
// entries its spare capacity stays near an eighth of its length (plus the
// allocator's size-class rounding), and no observation is lost or moved.
func TestHistoryGrowsByAnEighth(t *testing.T) {
	var h History
	for i := 0; i < 4096; i++ {
		h.Add(sparksim.Observation{Iteration: i, Time: float64(i)})
		if n := h.Len(); n >= 64 && cap(h.Obs)-n > n/4+8 {
			t.Fatalf("len %d: cap %d leaves more than a quarter spare", n, cap(h.Obs))
		}
	}
	for i, o := range h.Obs {
		if o.Iteration != i || o.Time != float64(i) {
			t.Fatalf("Obs[%d] = %+v", i, o)
		}
	}
}
