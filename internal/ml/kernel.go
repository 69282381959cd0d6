package ml

import (
	"math"

	"github.com/rockhopper-db/rockhopper/internal/mat"
)

// RBFKernel is a squared-exponential (Gaussian) kernel
// k(a, b) = Variance · exp(−‖a−b‖² / (2·LengthScale²)).
type RBFKernel struct {
	LengthScale float64
	Variance    float64
}

// Eval computes k(a, b).
func (k RBFKernel) Eval(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return k.Variance * math.Exp(-d2/(2*k.LengthScale*k.LengthScale))
}

const (
	// gramFanOutMin is the smallest Gram matrix filled on more than one
	// goroutine: 256 rows are ≈ 33 000 kernel evaluations, ≈ 1 ms; under that
	// the fill is too short to repay waking a processor the ingest handlers
	// may be using.
	gramFanOutMin = 256
	// gramFanOutRows is how many rows of the triangle a worker claims at a
	// time: rows grow longer towards the bottom, and small claims from a
	// shared counter even that out without computing band edges.
	gramFanOutRows = 16
)

// gramLower returns the n×n matrix whose lower triangle is k(rows[i], rows[j])
// with diag added on the diagonal: the regularized kernel matrix, in the form
// mat.NewCholeskyInPlace consumes. The upper triangle, which the
// factorization never reads, is left zero. Each entry is computed by one
// goroutine from its two rows alone, so the result does not depend on how
// many goroutines filled it.
func gramLower(k RBFKernel, rows [][]float64, diag float64) *mat.Dense {
	n := len(rows)
	g := mat.NewDense(n, n)
	if n < gramFanOutMin {
		fillGram(g, k, rows, diag, 0, n)
	} else {
		mat.FanOut(0, n, gramFanOutRows, func(from, to int) { fillGram(g, k, rows, diag, from, to) })
	}
	return g
}

// fillGram writes rows [from, to) of gramLower's triangle.
func fillGram(g *mat.Dense, k RBFKernel, rows [][]float64, diag float64, from, to int) {
	for i := from; i < to; i++ {
		out, ri := g.Row(i), rows[i]
		for j := 0; j < i; j++ {
			out[j] = k.Eval(rows[j], ri)
		}
		out[i] = k.Eval(ri, ri) + diag
	}
}

// KernelRidge is kernel ridge regression with an RBF kernel. It plays the
// role of the paper's SVR surrogate (scikit-learn's SVR with an RBF kernel):
// a smooth non-parametric fit whose ridge penalty absorbs observation noise,
// making it "moderately accurate" — Level 3–5 in the paper's terminology —
// which is precisely the regime Figure 10 evaluates.
type KernelRidge struct {
	Kernel RBFKernel
	// Alpha is the ridge regularization added to the kernel diagonal.
	Alpha float64
	// Standardize scales features before the kernel is applied; strongly
	// recommended because config dimensions have wildly different units.
	Standardize bool

	xTrain [][]float64
	dual   []float64
	yMean  float64
	scaler *Scaler
	fitted bool
}

// NewKernelRidge returns a kernel-ridge regressor with sensible defaults for
// standardized features: unit length scale, unit variance, Alpha = 0.5.
func NewKernelRidge() *KernelRidge {
	return &KernelRidge{
		Kernel:      RBFKernel{LengthScale: 1, Variance: 1},
		Alpha:       0.5,
		Standardize: true,
	}
}

// Fit solves (K + αI) a = y − ȳ and stores the dual coefficients.
func (k *KernelRidge) Fit(x [][]float64, y []float64) error {
	if _, err := checkXY(x, y); err != nil {
		return err
	}
	rows := x
	if k.Standardize {
		sc, err := FitScaler(x)
		if err != nil {
			return err
		}
		k.scaler = sc
		rows = sc.TransformAll(x)
	} else {
		k.scaler = nil
		rows = make([][]float64, len(x))
		for i, r := range x {
			rows[i] = append([]float64(nil), r...)
		}
	}
	n := len(rows)
	k.yMean = 0
	for _, v := range y {
		k.yMean += v
	}
	k.yMean /= float64(n)
	centred := make([]float64, n)
	for i, v := range y {
		centred[i] = v - k.yMean
	}
	ch, err := mat.NewCholeskyInPlace(gramLower(k.Kernel, rows, k.Alpha+1e-10))
	if err != nil {
		return err
	}
	dual, err := ch.SolveVec(centred)
	if err != nil {
		return err
	}
	k.xTrain = rows
	k.dual = dual
	k.fitted = true
	return nil
}

// Predict returns Σ aᵢ k(xᵢ, x) + ȳ.
func (k *KernelRidge) Predict(x []float64) float64 {
	if !k.fitted {
		return math.NaN()
	}
	row := x
	if k.scaler != nil {
		row = k.scaler.Transform(x)
	}
	var s float64
	for i, xi := range k.xTrain {
		s += k.dual[i] * k.Kernel.Eval(xi, row)
	}
	return s + k.yMean
}
