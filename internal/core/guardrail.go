package core

import (
	"math"

	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
)

// Guardrail is the production safety mechanism of Section 4.3: a regression
// model over (iteration number, input cardinality) predicts the next
// iteration's execution time; if the prediction exceeds the previous
// observation by more than a threshold for several consecutive checks, the
// query is declared unsuitable for autotuning and reverts to the default
// configuration. Checks begin only after MinIterations, guaranteeing every
// query a minimum exploration budget (30 iterations in production).
type Guardrail struct {
	// MinIterations is the iteration at which monitoring starts.
	MinIterations int
	// Threshold is the tolerated relative excess of the predicted next time
	// over the last observed time.
	Threshold float64
	// Consecutive is the number of successive breaches required to disable
	// autotuning; production uses an "extremely conservative" setting, which
	// the low default mirrors by disabling eagerly on sustained regression.
	Consecutive int
	// Window caps how much history feeds the trend fit (0 = all).
	Window int

	iters []float64
	sizes []float64
	times []float64
	run   int
}

// NewGuardrail returns the production-default guardrail: monitor from
// iteration 30, tolerate 1% predicted per-iteration growth, disable after 3
// consecutive breaches. The threshold is small because the linear trend fit
// heavily dampens even severe regressions (a 10%-per-iteration exponential
// blow-up projects to only ≈3% fitted growth); it also mirrors the
// "extremely conservative" production policy under which most external
// query signatures eventually revert to defaults (Section 6.3).
func NewGuardrail() *Guardrail {
	return &Guardrail{MinIterations: 30, Threshold: 0.01, Consecutive: 3, Window: 40}
}

// Observe records iteration t's outcome and returns true when autotuning
// should be disabled.
func (g *Guardrail) Observe(t int, o sparksim.Observation) bool {
	g.iters = append(g.iters, float64(t))
	g.sizes = append(g.sizes, math.Log1p(o.DataSize))
	g.times = append(g.times, o.Time)
	if g.Window > 0 && len(g.iters) > g.Window {
		g.iters = g.iters[1:]
		g.sizes = g.sizes[1:]
		g.times = g.times[1:]
	}
	if t < g.MinIterations || len(g.iters) < 5 {
		return false
	}
	// Compare the model's prediction for the next iteration against its
	// fitted value at the previous one (both at the latest input size).
	// Using the fitted previous value instead of the raw observation
	// de-noises the comparison: a lucky fast run or an unlucky spike in the
	// last observation would otherwise flip the verdict.
	size := g.sizes[len(g.sizes)-1]
	next, ok := g.predictAt(float64(t+1), size)
	if !ok {
		return false
	}
	prev, ok := g.predictAt(float64(t), size)
	if !ok || prev <= 0 {
		return false
	}
	if next > prev*(1+g.Threshold) {
		g.run++
	} else {
		g.run = 0
	}
	return g.run >= g.Consecutive
}

// predictAt fits the (iteration, log size) → time regression and evaluates
// it at the given iteration.
func (g *Guardrail) predictAt(iter, logSize float64) (float64, bool) {
	x := make([][]float64, len(g.iters))
	y := make([]float64, len(g.iters))
	for i := range g.iters {
		x[i] = []float64{g.iters[i], g.sizes[i]}
		y[i] = g.times[i]
	}
	lin := ml.NewLinear(1e-6)
	if err := lin.Fit(x, y); err != nil {
		return 0, false
	}
	p := lin.Predict([]float64{iter, logSize})
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return 0, false
	}
	return p, true
}
