package core

import (
	"math"

	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
)

// FindBestMode selects the FIND_BEST refinement (Section 4.3). The function
// went through three production iterations, all preserved here for the
// ablation benchmarks.
type FindBestMode int

const (
	// FindBestRaw picks the window observation with the shortest raw
	// execution time (v1). Biased when data sizes vary.
	FindBestRaw FindBestMode = iota
	// FindBestNormalized divides time by data size (v2, Equation 3). Still
	// biased because time/size falls as size grows.
	FindBestNormalized
	// FindBestModel fits H(c, p) on the window and compares candidates at a
	// fixed reference size (v3, Equations 4–5). The production default.
	FindBestModel
)

func (m FindBestMode) String() string {
	switch m {
	case FindBestRaw:
		return "raw"
	case FindBestNormalized:
		return "normalized"
	default:
		return "model"
	}
}

// GradientMode selects the FIND_GRADIENT strategy.
type GradientMode int

const (
	// GradientLinear fits a linear trend surface over the window and
	// descends against the coefficient signs (the "learning the trend"
	// example of Figure 6).
	GradientLinear GradientMode = iota
	// GradientModelProbe reuses the non-linear window model H and probes
	// the 2^d sign combinations of Equation (6–7) around the best
	// configuration, avoiding linearity assumptions about data size — the
	// production default.
	GradientModelProbe
)

func (m GradientMode) String() string {
	if m == GradientModelProbe {
		return "model-probe"
	}
	return "linear"
}

// Params are the Centroid Learning hyperparameters of Algorithm 1.
type Params struct {
	// Alpha is the centroid update step: the overshoot applied along the
	// learned descent direction (momentum-style, Section 4.3).
	Alpha float64
	// Beta bounds the candidate neighbourhood around the centroid, the
	// regression-avoidance guard.
	Beta float64
	// N is the observation window Ω(t, N); the paper recommends 10–20 under
	// production noise.
	N int
	// Candidates is the number of neighbourhood candidates per iteration.
	Candidates int
	// FindBest and Gradient select the algorithm variants.
	FindBest FindBestMode
	Gradient GradientMode
}

// DefaultParams mirrors the production configuration.
func DefaultParams() Params {
	return Params{
		Alpha:      0.08,
		Beta:       0.08,
		N:          20,
		Candidates: 32,
		FindBest:   FindBestModel,
		Gradient:   GradientModelProbe,
	}
}

// CentroidLearner is Algorithm 1: a tuner that restricts exploration to a
// moving β-neighbourhood whose anchor (the centroid) is updated from
// statistical insight over the last N observations rather than from any
// single noisy run.
type CentroidLearner struct {
	Space    *sparksim.Space
	Params   Params
	Selector Selector
	// Guardrail monitors for sustained regression; nil disables monitoring.
	Guardrail *Guardrail
	// Start is the initial centroid e₀; nil means the space default.
	Start sparksim.Config
	// RNG drives candidate sampling.
	RNG *stats.RNG

	centroid []float64 // normalized
	hist     tuners.History
	lastSize float64
	disabled bool
}

// New returns a CentroidLearner with production defaults and the given
// selector.
func New(space *sparksim.Space, sel Selector, rng *stats.RNG) *CentroidLearner {
	return &CentroidLearner{
		Space:     space,
		Params:    DefaultParams(),
		Selector:  sel,
		Guardrail: NewGuardrail(),
		RNG:       rng,
	}
}

// Name implements tuners.Tuner.
func (c *CentroidLearner) Name() string { return "centroid" }

// Disabled reports whether the guardrail has reverted the query to the
// default configuration.
func (c *CentroidLearner) Disabled() bool { return c.disabled }

// Centroid exposes the current centroid as a configuration (monitoring).
func (c *CentroidLearner) Centroid() sparksim.Config {
	if c.centroid == nil {
		return c.startConfig()
	}
	return c.Space.Denormalize(c.centroid)
}

func (c *CentroidLearner) startConfig() sparksim.Config {
	if c.Start != nil {
		return c.Start.Clone()
	}
	return c.Space.Default()
}

// History returns the learner's observation log, one record per observed
// run. It is the learner's own: read it, never add to it.
func (c *CentroidLearner) History() *tuners.History { return &c.hist }

// Propose implements tuners.Tuner: generate the candidate set in the
// β-neighbourhood of the centroid and let the surrogate pick (Steps 1–2 of
// Figure 5).
func (c *CentroidLearner) Propose(t int, dataSize float64) sparksim.Config {
	if c.disabled {
		return c.Space.Default()
	}
	if c.centroid == nil {
		c.centroid = c.Space.Normalize(c.startConfig())
	}
	if t == 0 && c.hist.Len() == 0 {
		// Iteration 0 executes the starting centroid itself: in production
		// this is the customer's current (default) configuration, so the
		// first tuned run can never regress against it by construction.
		return c.Space.Denormalize(c.centroid)
	}
	center := c.Space.Denormalize(c.centroid)
	cands := c.Space.Neighborhood(center, c.Params.Beta, c.Params.Candidates, c.RNG)
	cands = append(cands, center)
	idx := c.Selector.Select(cands, c.hist.Window(c.Params.N), dataSize)
	if idx < 0 || idx >= len(cands) {
		return center
	}
	return cands[idx]
}

// Observe implements tuners.Tuner: record the outcome, run the guardrail,
// and update the centroid (Steps 3–5 of Figure 5).
func (c *CentroidLearner) Observe(o sparksim.Observation) {
	c.hist.Add(o)
	c.lastSize = o.DataSize
	if c.Guardrail != nil && !c.disabled {
		if c.Guardrail.Observe(&c.hist) {
			c.disabled = true
			return
		}
	}
	c.updateCentroid()
}

// updateCentroid computes e_{t+1} ← c* − α·Δ over the latest window.
// Movement toward the target is rate-limited to 2α per dimension per
// iteration: FIND_BEST's pick can relocate discontinuously between
// iterations when noise reorders the window, and without the trust region
// the centroid teleports with it, turning the update into a large-step
// random walk under heavy noise.
func (c *CentroidLearner) updateCentroid() {
	w := c.hist.Window(c.Params.N)
	if len(w) == 0 {
		return
	}
	if c.centroid == nil {
		// Observe before any Propose (replaying external history).
		c.centroid = c.Space.Normalize(c.startConfig())
	}
	best := c.FindBest(w)
	target := c.Space.Normalize(best.Config)
	delta := c.FindGradient(w, best)
	maxStep := 2 * c.Params.Alpha
	for j := range target {
		t := stats.Clamp(target[j]-c.Params.Alpha*delta[j], 0, 1)
		move := stats.Clamp(t-c.centroid[j], -maxStep, maxStep)
		c.centroid[j] = stats.Clamp(c.centroid[j]+move, 0, 1)
	}
}

// FindBest returns the best configuration in the window under the
// configured criterion (v1/v2/v3 of Section 4.3). Exported for the ablation
// benchmarks.
func (c *CentroidLearner) FindBest(w []sparksim.Observation) sparksim.Observation {
	switch c.Params.FindBest {
	case FindBestRaw:
		return argminObs(w, func(o sparksim.Observation) float64 { return o.Time })
	case FindBestNormalized:
		return argminObs(w, func(o sparksim.Observation) float64 {
			if o.DataSize <= 0 {
				return o.Time
			}
			return o.Time / o.DataSize
		})
	default:
		model := c.fitWindowModel(w)
		if model == nil {
			// Too little data for a stable fit: fall back to v2.
			return argminObs(w, func(o sparksim.Observation) float64 {
				if o.DataSize <= 0 {
					return o.Time
				}
				return o.Time / o.DataSize
			})
		}
		pRef := w[len(w)-1].DataSize
		return argminObs(w, func(o sparksim.Observation) float64 {
			return model.Predict(tuners.ConfigFeatures(c.Space, nil, o.Config, pRef))
		})
	}
}

// FindGradient learns the per-dimension descent direction Δ ∈ {−1, 0, +1}^d
// from the window (Section 4.3). Exported for the ablation benchmarks.
func (c *CentroidLearner) FindGradient(w []sparksim.Observation, best sparksim.Observation) []float64 {
	dim := c.Space.Dim()
	delta := make([]float64, dim)
	if len(w) < dim+2 {
		return delta // not enough observations to resolve a direction
	}
	switch c.Params.Gradient {
	case GradientLinear:
		lin := ml.NewLinear(1e-4)
		x := make([][]float64, len(w))
		y := make([]float64, len(w))
		for i, o := range w {
			x[i] = tuners.ConfigFeatures(c.Space, nil, o.Config, o.DataSize)
			y[i] = math.Log1p(o.Time)
		}
		if err := lin.Fit(x, y); err != nil {
			return delta
		}
		for j := 0; j < dim; j++ {
			s := lin.RawSlope(j)
			switch {
			case s > 0:
				delta[j] = 1 // time rises with this config: descend by decreasing
			case s < 0:
				delta[j] = -1
			}
		}
		return delta

	default: // GradientModelProbe, Equations (6)–(7)
		model := c.fitWindowModel(w)
		if model == nil {
			return delta
		}
		u := c.Space.Normalize(best.Config)
		pRef := w[len(w)-1].DataSize
		bestVal := math.Inf(1)
		var bestDelta []float64
		// Enumerate δ ∈ {−1, +1}^d (Equation 7): probe H at u − α·δ and keep
		// the probe with the lowest predicted time. There is deliberately no
		// "stay" option — the centroid always overshoots in the winning
		// direction, the momentum mechanism that escapes local minima.
		combos := 1 << dim
		probe := make([]float64, dim)
		for mask := 0; mask < combos; mask++ {
			d := make([]float64, dim)
			for j := 0; j < dim; j++ {
				if mask&(1<<j) != 0 {
					d[j] = 1
				} else {
					d[j] = -1
				}
			}
			for j := 0; j < dim; j++ {
				probe[j] = stats.Clamp(u[j]-c.Params.Alpha*d[j], 0, 1)
			}
			cfg := c.Space.Denormalize(probe)
			v := model.Predict(tuners.ConfigFeatures(c.Space, nil, cfg, pRef))
			if v < bestVal {
				bestVal = v
				bestDelta = append([]float64(nil), d...)
			}
		}
		if bestDelta == nil {
			return delta
		}
		return bestDelta
	}
}

// fitWindowModel fits the non-linear window model H(c, p) of Equation (4).
func (c *CentroidLearner) fitWindowModel(w []sparksim.Observation) ml.Regressor {
	if len(w) < 4 {
		return nil
	}
	x := make([][]float64, len(w))
	y := make([]float64, len(w))
	for i, o := range w {
		x[i] = tuners.ConfigFeatures(c.Space, nil, o.Config, o.DataSize)
		y[i] = math.Log1p(o.Time)
	}
	kr := ml.NewKernelRidge()
	kr.Alpha = 0.3
	if err := kr.Fit(x, y); err != nil {
		return nil
	}
	return kr
}

func argminObs(w []sparksim.Observation, score func(sparksim.Observation) float64) sparksim.Observation {
	best := w[0]
	bestScore := score(best)
	for _, o := range w[1:] {
		if s := score(o); s < bestScore {
			best, bestScore = o, s
		}
	}
	return best
}

var _ tuners.Tuner = (*CentroidLearner)(nil)
