package ml

import (
	"fmt"
	"math"

	"github.com/rockhopper-db/rockhopper/internal/mat"
)

// GP is Gaussian-process regression with an RBF kernel and homoscedastic
// observation noise. It is the surrogate behind the vanilla and contextual
// Bayesian Optimization baselines (Sections 2.2, 4.1, 6.2): the posterior
// mean and variance feed the Expected Improvement acquisition function.
//
// After a batch Fit, Observe conditions on one further observation in O(n²)
// by extending the existing Cholesky factor instead of refactorizing in
// O(n³) — the dominant per-iteration cost of every tuning loop — and
// ForgetLast removes the newest observation again. PredictVar reuses
// internal scratch buffers and performs no steady-state allocation; as a
// consequence a GP is NOT safe for concurrent use (production runs one
// surrogate per query signature, matching the Tuner contract).
type GP struct {
	Kernel RBFKernel
	// Noise is the observation-noise variance added to the kernel diagonal.
	Noise float64
	// Standardize scales inputs to zero mean / unit variance before the
	// kernel is applied. The scaler is fitted by Fit and then FROZEN: Observe
	// reuses it rather than re-estimating, which is what makes the
	// incremental update exact with respect to the frozen feature map.
	Standardize bool

	xTrain [][]float64
	yTrain []float64 // raw responses, so the centring can be recomputed
	alpha  []float64 // (K+σ²I)⁻¹ (y−ȳ)
	chol   *mat.Cholesky
	yMean  float64
	scaler *Scaler
	fitted bool

	kstar []float64 // scratch: k(x*, X) then L⁻¹k(x*, X)
	xbuf  []float64 // scratch: standardized query point
}

// NewGP returns a GP with unit RBF kernel and noise 0.1, standardized inputs.
func NewGP() *GP {
	return &GP{
		Kernel:      RBFKernel{LengthScale: 1, Variance: 1},
		Noise:       0.1,
		Standardize: true,
	}
}

// Fit conditions the GP on observations (x, y).
func (g *GP) Fit(x [][]float64, y []float64) error {
	if _, err := checkXY(x, y); err != nil {
		return err
	}
	rows := x
	if g.Standardize {
		sc, err := FitScaler(x)
		if err != nil {
			return err
		}
		g.scaler = sc
		rows = sc.TransformAll(x)
	} else {
		g.scaler = nil
		rows = make([][]float64, len(x))
		for i, r := range x {
			rows[i] = append([]float64(nil), r...)
		}
	}
	n := len(rows)
	g.yMean = 0
	for _, v := range y {
		g.yMean += v
	}
	g.yMean /= float64(n)
	centred := make([]float64, n)
	for i, v := range y {
		centred[i] = v - g.yMean
	}
	ch, err := mat.NewCholeskyInPlace(gramLower(g.Kernel, rows, g.Noise+1e-10))
	if err != nil {
		return err
	}
	alpha, err := ch.SolveVec(centred)
	if err != nil {
		return err
	}
	g.xTrain = rows
	g.yTrain = append(g.yTrain[:0], y...)
	g.alpha = alpha
	g.chol = ch
	g.fitted = true
	return nil
}

// Len returns the number of observations the GP is conditioned on.
func (g *GP) Len() int { return len(g.xTrain) }

// Fitted reports whether the GP has been successfully fitted.
func (g *GP) Fitted() bool { return g.fitted }

// Observe conditions the fitted GP on one additional observation in O(n²):
// the Cholesky factor grows by one bordered row (one triangular solve) and
// the dual weights are refreshed through the existing factor, instead of the
// O(n³) refactorization a full Fit pays. With Standardize enabled the scaler
// fitted by the last Fit is reused unchanged. Returns ErrNotFitted before
// the first successful Fit; on error the model is unchanged.
func (g *GP) Observe(x []float64, y float64) error {
	if !g.fitted {
		return ErrNotFitted
	}
	if len(x) != len(g.xTrain[0]) {
		return fmt.Errorf("ml: observation has %d features, model has %d", len(x), len(g.xTrain[0]))
	}
	row := make([]float64, len(x))
	if g.scaler != nil {
		g.scaler.TransformTo(row, x)
	} else {
		copy(row, x)
	}
	n := len(g.xTrain)
	kstar := make([]float64, n)
	for i, xi := range g.xTrain {
		kstar[i] = g.Kernel.Eval(xi, row)
	}
	if err := g.chol.AppendRow(kstar, g.Kernel.Eval(row, row)+g.Noise+1e-10); err != nil {
		return err
	}
	g.xTrain = append(g.xTrain, row)
	g.yTrain = append(g.yTrain, y)
	return g.refreshAlpha()
}

// ForgetLast removes the most recently observed point (the inverse of
// Observe): the factor shrinks by one order and the dual weights are
// refreshed in O(n²). At least one observation must remain.
func (g *GP) ForgetLast() error {
	if !g.fitted {
		return ErrNotFitted
	}
	n := len(g.xTrain)
	if n <= 1 {
		return fmt.Errorf("ml: cannot forget the only remaining observation")
	}
	g.chol.Shrink()
	g.xTrain = g.xTrain[:n-1]
	g.yTrain = g.yTrain[:n-1]
	return g.refreshAlpha()
}

// refreshAlpha recomputes the response mean and dual weights
// α = (K+σ²I)⁻¹ (y−ȳ) through the current factor, reusing the α buffer.
func (g *GP) refreshAlpha() error {
	n := len(g.yTrain)
	g.yMean = 0
	for _, v := range g.yTrain {
		g.yMean += v
	}
	g.yMean /= float64(n)
	if cap(g.alpha) < n {
		g.alpha = make([]float64, n)
	}
	g.alpha = g.alpha[:n]
	for i, v := range g.yTrain {
		g.alpha[i] = v - g.yMean
	}
	return g.chol.SolveVecInPlace(g.alpha)
}

// Predict returns the posterior mean at x.
func (g *GP) Predict(x []float64) float64 {
	m, _ := g.PredictVar(x)
	return m
}

// PredictVar returns the posterior mean and variance at x. It reuses the
// GP's scratch buffers and performs no steady-state allocation, so it must
// not be called concurrently on one GP.
func (g *GP) PredictVar(x []float64) (mean, variance float64) {
	if !g.fitted {
		return math.NaN(), math.NaN()
	}
	row := x
	if g.scaler != nil {
		if cap(g.xbuf) < len(x) {
			g.xbuf = make([]float64, len(x))
		}
		g.xbuf = g.xbuf[:len(x)]
		g.scaler.TransformTo(g.xbuf, x)
		row = g.xbuf
	}
	n := len(g.xTrain)
	if cap(g.kstar) < n {
		g.kstar = make([]float64, n)
	}
	kstar := g.kstar[:n]
	for i, xi := range g.xTrain {
		kstar[i] = g.Kernel.Eval(xi, row)
	}
	mean = g.yMean + mat.Dot(kstar, g.alpha)
	// variance = k(x,x) − k*ᵀ (K+σ²I)⁻¹ k* computed via v = L⁻¹ k* in place.
	if err := g.chol.SolveTriLowerInPlace(kstar); err != nil {
		return mean, math.NaN()
	}
	variance = g.Kernel.Eval(row, row) - mat.Dot(kstar, kstar)
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// normalPDF is the standard normal density.
func normalPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// normalCDF is the standard normal distribution function.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// ExpectedImprovement returns the EI acquisition value at x for a
// minimization problem with incumbent best observed value best. Larger is
// better. xi is the exploration margin (commonly 0.01 of the response scale).
func (g *GP) ExpectedImprovement(x []float64, best, xi float64) float64 {
	mean, variance := g.PredictVar(x)
	sd := math.Sqrt(variance)
	if sd < 1e-12 {
		if imp := best - xi - mean; imp > 0 {
			return imp
		}
		return 0
	}
	z := (best - xi - mean) / sd
	return (best-xi-mean)*normalCDF(z) + sd*normalPDF(z)
}

// LowerConfidenceBound returns mean − kappa·sd at x; for minimization the
// candidate with the smallest LCB is the most promising.
func (g *GP) LowerConfidenceBound(x []float64, kappa float64) float64 {
	mean, variance := g.PredictVar(x)
	return mean - kappa*math.Sqrt(variance)
}
