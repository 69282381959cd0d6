// Package ml is Rockhopper's from-scratch machine-learning substrate. The
// production system relies on scikit-learn, ONNX, and the
// bayesian-optimization package; since this reproduction is stdlib-only, the
// package implements the models the paper actually uses:
//
//   - linear / ridge regression (FIND_GRADIENT trend fitting, guardrail),
//   - kernel ridge regression with an RBF kernel (the noise-robust "SVR"
//     surrogate of Section 6.1),
//   - Gaussian-process regression with Expected Improvement (the Bayesian
//     Optimization surrogate of Sections 2.2, 4.1 and 6.2), and
//   - feature standardization and interaction/polynomial expansion
//     ("feature construction" from Section 3.1).
//
// All models implement Regressor. The two that are shipped between the
// autotune backend and its clients (linear, kernel ridge) serialize with
// Marshal/Unmarshal into one flat, versioned little-endian format — the ONNX
// round trip of the paper — that decodes into a single backing array, because
// every recommendation decodes one on the submission path (serialize.go).
package ml

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotFitted is returned by Predict when the model has not been fitted.
var ErrNotFitted = errors.New("ml: model is not fitted")

// ErrNoData is returned by Fit when given an empty training set.
var ErrNoData = errors.New("ml: empty training set")

// Regressor is the common contract for all surrogate models: fit on a design
// matrix (rows = observations) and predict a scalar response per input row.
type Regressor interface {
	// Fit trains the model. Implementations must copy any data they retain.
	Fit(x [][]float64, y []float64) error
	// Predict returns the point prediction for one feature vector. Calling
	// Predict before a successful Fit returns NaN.
	Predict(x []float64) float64
}

func checkXY(x [][]float64, y []float64) (cols int, err error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, ErrNoData
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("ml: %d rows but %d responses", len(x), len(y))
	}
	cols = len(x[0])
	for i, row := range x {
		if len(row) != cols {
			return 0, fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), cols)
		}
	}
	return cols, nil
}

// Scaler standardizes features to zero mean and unit variance. Constant
// columns are left centred but unscaled (scale 1) to avoid division by zero.
type Scaler struct {
	Mean  []float64
	Scale []float64
}

// FitScaler computes per-column statistics of x.
func FitScaler(x [][]float64) (*Scaler, error) {
	if len(x) == 0 {
		return nil, ErrNoData
	}
	p := len(x[0])
	s := &Scaler{Mean: make([]float64, p), Scale: make([]float64, p)}
	n := float64(len(x))
	for _, row := range x {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Scale[j] += d * d
		}
	}
	for j := range s.Scale {
		s.Scale[j] = math.Sqrt(s.Scale[j] / n)
		if s.Scale[j] < 1e-12 {
			s.Scale[j] = 1
		}
	}
	return s, nil
}

// Transform returns a standardized copy of x.
func (s *Scaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	s.TransformTo(out, x)
	return out
}

// TransformTo standardizes x into dst (same length), without allocating.
func (s *Scaler) TransformTo(dst, x []float64) {
	for j, v := range x {
		dst[j] = (v - s.Mean[j]) / s.Scale[j]
	}
}

// TransformAll standardizes every row of x into a new matrix.
func (s *Scaler) TransformAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.Transform(row)
	}
	return out
}

// FeatureExpander augments raw features with pairwise interaction terms and
// squares, the "adding interactions and permutations to the feature set"
// step from the paper's Python pipeline. With Interactions and Squares both
// false it is the identity (plus optional bias).
type FeatureExpander struct {
	Interactions bool
	Squares      bool
	Bias         bool
}

// Expand maps a raw feature vector to the expanded representation.
func (e FeatureExpander) Expand(x []float64) []float64 {
	out := make([]float64, 0, e.width(len(x)))
	if e.Bias {
		out = append(out, 1)
	}
	out = append(out, x...)
	if e.Squares {
		for _, v := range x {
			out = append(out, v*v)
		}
	}
	if e.Interactions {
		for i := 0; i < len(x); i++ {
			for j := i + 1; j < len(x); j++ {
				out = append(out, x[i]*x[j])
			}
		}
	}
	return out
}

// ExpandAll expands every row of x.
func (e FeatureExpander) ExpandAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = e.Expand(row)
	}
	return out
}

func (e FeatureExpander) width(p int) int {
	w := p
	if e.Bias {
		w++
	}
	if e.Squares {
		w += p
	}
	if e.Interactions {
		w += p * (p - 1) / 2
	}
	return w
}

// MSE returns the mean squared error of predictions against truth.
func MSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// R2 returns the coefficient of determination of predictions against truth.
func R2(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	var mean float64
	for _, v := range truth {
		mean += v
	}
	mean /= float64(len(truth))
	var ssRes, ssTot float64
	for i := range truth {
		d := truth[i] - pred[i]
		ssRes += d * d
		t := truth[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}
