package core

import (
	"math"

	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
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

	run int
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

// Observe checks the query after its latest run, the last of h, and
// returns true when autotuning should be disabled. The trend is fitted over
// h's last Window runs, each at its position in h as its iteration: the
// guardrail keeps no copy of the runs, only its count of consecutive
// breaches, so it must see every run h records.
func (g *Guardrail) Observe(h *tuners.History) bool {
	t := h.Len() - 1
	w := h.Window(g.Window)
	if t < g.MinIterations || len(w) < 5 {
		return false
	}
	// Compare the model's prediction for the next iteration against its
	// fitted value at the previous one (both at the latest input size).
	// Using the fitted previous value instead of the raw observation
	// de-noises the comparison: a lucky fast run or an unlucky spike in the
	// last observation would otherwise flip the verdict.
	x := make([][]float64, len(w))
	y := make([]float64, len(w))
	first := t + 1 - len(w)
	for i, o := range w {
		x[i] = []float64{float64(first + i), math.Log1p(o.DataSize)}
		y[i] = o.Time
	}
	lin := ml.NewLinear(1e-6)
	if err := lin.Fit(x, y); err != nil {
		return false
	}
	size := x[len(x)-1][1]
	next, prev := lin.Predict([]float64{float64(t + 1), size}), lin.Predict([]float64{float64(t), size})
	if !finite(next) || !finite(prev) || prev <= 0 {
		return false
	}
	if next > prev*(1+g.Threshold) {
		g.run++
	} else {
		g.run = 0
	}
	return g.run >= g.Consecutive
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
