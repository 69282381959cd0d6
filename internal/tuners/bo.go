package tuners

import (
	"math"

	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
)

// BaselinePoint is one offline observation from the flighting pipeline used
// to warm-start contextual surrogates: the embedding of the benchmark query
// it came from, the configuration, the input size, and the measured time.
type BaselinePoint struct {
	Context  []float64
	Config   sparksim.Config
	DataSize float64
	Time     float64
}

// BO is vanilla Bayesian Optimization with a Gaussian-process surrogate and
// Expected Improvement acquisition over the full configuration space. It is
// the primary model-guided baseline (Figure 2a, Figure 13) and, with a
// context vector and warm-start data, becomes Contextual BO (Figure 12).
type BO struct {
	Space *sparksim.Space
	RNG   *stats.RNG
	// Context is the workload embedding prepended to surrogate features;
	// nil yields vanilla (non-contextual) BO.
	Context []float64
	// Warm supplies offline baseline observations (Section 4.2). They are
	// folded into every surrogate fit alongside the query's own history.
	Warm []BaselinePoint
	// Candidates is the number of random acquisition candidates per
	// iteration (default 128).
	Candidates int
	// InitRandom is the number of leading iterations run at random
	// configurations before the surrogate takes over (default 3; 0 is
	// honoured when warm-start data is present).
	InitRandom int
	// Xi is the EI exploration margin relative to the observed time scale.
	Xi float64
	// MaxRows caps the surrogate design matrix (default 220): the GP fit is
	// O(n³) and sits on the job-submission critical path (Section 3.1).
	MaxRows int
	// Start overrides the iteration-0 configuration; nil means the space
	// default. Figure 13 starts from an intentionally poor configuration.
	Start sparksim.Config
	// LogTime fits the surrogate on log1p(time); production times are
	// heavy-tailed, and the log transform is what keeps spikes from
	// dominating the GP fit.
	LogTime bool

	hist History
	name string

	// Incremental-surrogate state: the persistent GP, the number of design
	// rows it has absorbed, and the incremental extensions since the last
	// full refit.
	gp       *ml.GP
	gpRows   int
	sinceFit int
}

// NewBO returns a vanilla Bayesian Optimization tuner.
func NewBO(space *sparksim.Space, rng *stats.RNG) *BO {
	return &BO{
		Space: space, RNG: rng,
		Candidates: 128, InitRandom: 3, Xi: 0.01, LogTime: true,
		name: "bo",
	}
}

// NewCBO returns Contextual BO: the workload embedding is part of the
// surrogate features and warm-start points transfer benchmark knowledge.
func NewCBO(space *sparksim.Space, rng *stats.RNG, context []float64, warm []BaselinePoint) *BO {
	b := NewBO(space, rng)
	b.Context = context
	b.Warm = warm
	if len(warm) > 0 {
		b.InitRandom = 0
	}
	b.name = "cbo"
	return b
}

// Name implements Tuner.
func (b *BO) Name() string { return b.name }

// refitEvery caps how many incremental O(n²) GP.Observe extensions run
// between full O(n³) refits. A full refit also triggers whenever the design
// has grown ≥50% since the last one, so the frozen feature scaler tracks the
// data while the model is small and refits become rare as it grows.
const refitEvery = 32

// Observe implements Tuner. When a surrogate is live and under its row cap,
// the observation is folded in through the O(n²) incremental GP.Observe path
// instead of scheduling an O(n³) refit; past the cap (or the refitEvery
// staleness bound) the surrogate is dropped so the next Propose refits on
// the capped window, exactly as before.
func (b *BO) Observe(o sparksim.Observation) {
	b.hist.Add(o)
	if b.gp == nil {
		return
	}
	maxRows := b.MaxRows
	if maxRows <= 0 {
		maxRows = 220
	}
	grownHalf := b.sinceFit > 0 && 2*b.sinceFit >= b.gpRows-b.sinceFit
	if b.gpRows >= maxRows || b.sinceFit >= refitEvery || grownHalf {
		b.gp = nil
		return
	}
	x := ConfigFeatures(b.Space, b.Context, o.Config, o.DataSize)
	if err := b.gp.Observe(x, b.transform(o.Time)); err != nil {
		b.gp = nil
		return
	}
	b.gpRows++
	b.sinceFit++
}

// Propose implements Tuner.
func (b *BO) Propose(t int, dataSize float64) sparksim.Config {
	if t == 0 {
		if b.Start != nil {
			return b.Start.Clone()
		}
		return b.Space.Default()
	}
	if b.hist.Len() < b.InitRandom {
		return b.Space.Random(b.RNG)
	}
	gp, best, ok := b.fitSurrogate(dataSize)
	if !ok {
		return b.Space.Random(b.RNG)
	}
	cands := b.candidateSet()
	bestIdx, bestEI := 0, math.Inf(-1)
	for i, c := range cands {
		x := ConfigFeatures(b.Space, b.Context, c, dataSize)
		ei := gp.ExpectedImprovement(x, best, b.Xi*math.Abs(best))
		if ei > bestEI {
			bestIdx, bestEI = i, ei
		}
	}
	return cands[bestIdx]
}

// candidateSet samples acquisition candidates uniformly from the space.
func (b *BO) candidateSet() []sparksim.Config {
	n := b.Candidates
	if n <= 0 {
		n = 128
	}
	out := make([]sparksim.Config, 0, n+1)
	out = append(out, b.Space.Default())
	for i := 0; i < n; i++ {
		out = append(out, b.Space.Random(b.RNG))
	}
	return out
}

// fitSurrogate returns the live incremental GP, or trains a fresh one on
// warm-start plus query history, together with the incumbent best
// (transformed) response.
func (b *BO) fitSurrogate(dataSize float64) (*ml.GP, float64, bool) {
	if b.gp != nil {
		return b.gp, b.incumbent(), true
	}
	gp, rows, ok := b.fullFit(dataSize)
	if !ok {
		return nil, 0, false
	}
	b.gp, b.gpRows, b.sinceFit = gp, rows, 0
	return b.gp, b.incumbent(), true
}

// fullFit trains the GP from scratch on warm-start plus query history and
// returns the number of design rows it absorbed.
func (b *BO) fullFit(dataSize float64) (*ml.GP, int, bool) {
	n := len(b.Warm) + b.hist.Len()
	if n < 2 {
		return nil, 0, false
	}
	// Cap the design size to keep the O(n³) GP fit on the inference-latency
	// budget (Section 3.1): prefer the query's own history, fill the
	// remainder with a random subsample of warm-start points.
	maxRows := b.MaxRows
	if maxRows <= 0 {
		maxRows = 220
	}
	x := make([][]float64, 0, n)
	y := make([]float64, 0, n)
	warm := b.Warm
	if len(warm)+b.hist.Len() > maxRows && b.hist.Len() < maxRows {
		keep := maxRows - b.hist.Len()
		idx := b.RNG.Perm(len(warm))[:keep]
		sub := make([]BaselinePoint, 0, keep)
		for _, i := range idx {
			sub = append(sub, warm[i])
		}
		warm = sub
	}
	for _, w := range warm {
		ctx := w.Context
		if b.Context == nil {
			ctx = nil
		}
		x = append(x, ConfigFeatures(b.Space, ctx, w.Config, w.DataSize))
		y = append(y, b.transform(w.Time))
	}
	for _, o := range b.hist.Window(maxRows) {
		x = append(x, ConfigFeatures(b.Space, b.Context, o.Config, o.DataSize))
		y = append(y, b.transform(o.Time))
	}
	_ = dataSize
	gp := ml.NewGP()
	gp.Kernel.LengthScale = 0.7
	gp.Noise = 0.2
	if err := gp.Fit(x, y); err != nil {
		return nil, 0, false
	}
	return gp, len(x), true
}

// incumbent is the EI reference: the best of THIS query's own observations.
// Warm points describe other workloads whose absolute times are not
// comparable; using their global minimum would flatten EI to near zero for
// any slower target query. With no own history yet it falls back to the
// surrogate's training minimum.
func (b *BO) incumbent() float64 {
	best := math.Inf(1)
	for _, o := range b.hist.Obs {
		if v := b.transform(o.Time); v < best {
			best = v
		}
	}
	if math.IsInf(best, 1) && b.gp != nil {
		// No own observations: fall back to the warm-start minimum on the
		// transformed scale.
		for _, w := range b.Warm {
			if v := b.transform(w.Time); v < best {
				best = v
			}
		}
	}
	return best
}

func (b *BO) transform(t float64) float64 {
	if b.LogTime {
		return math.Log1p(t)
	}
	return t
}

var _ Tuner = (*BO)(nil)
