package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The production system serializes models to ONNX so they can be trained in
// Python and loaded in Scala (Section 3.1). This reproduction ships one flat
// little-endian format between the autotune backend and its clients
// (DESIGN.md "Model wire format"):
//
//	 0  magic "RHML"    4  version    5  kind    6  flags    7  zero
//	 8  n u32          12  d u32     16  scaler width u32
//	20  four 8-byte scalar slots, per kind:
//	      linear       Lambda, Intercept
//	      kernelridge  LengthScale, Variance, Alpha, yMean
//	52  float64 payload: n rows of d (xTrain), one n-vector (Coef or dual),
//	    scaler mean, scaler scale
//
// A linear model has d = 0 and n = len(Coef). Kind 3 (a k-nearest-neighbour
// model) is retired and refused like any unknown kind.
const (
	modelMagic   = "RHML"
	modelVersion = 1
	headerLen    = 52

	kindLinear      = 1
	kindKernelRidge = 2

	flagFitted       = 1 << 0
	flagStandardize  = 1 << 1
	flagScaler       = 1 << 2
	flagInteractions = 1 << 3
	flagSquares      = 1 << 4
	flagBias         = 1 << 5
	flagsKnown       = 1<<6 - 1
)

// ErrFormat is returned (wrapped) by Unmarshal for bytes that are not a model
// in the current wire format: wrong magic or version, or a header that does
// not describe exactly the bytes that follow it.
var ErrFormat = errors.New("ml: not a model in the current wire format")

func flagIf(on bool, bit byte) byte {
	if on {
		return bit
	}
	return 0
}

// Marshal serializes a fitted (or unfitted) model to bytes. Supported
// concrete types: *Linear, *KernelRidge. The GP is intentionally not
// serialized: like the paper's system, GP surrogates are rebuilt from the
// observation log rather than shipped.
func Marshal(r Regressor) ([]byte, error) {
	var (
		kind                byte
		fitted, standardize bool
		expand              FeatureExpander
		scalars             [4]uint64
		rows                [][]float64
		vec                 []float64
		sc                  *Scaler
	)
	switch m := r.(type) {
	case *Linear:
		kind, fitted, standardize, expand = kindLinear, m.fitted, m.Standardize, m.Expand
		scalars = [4]uint64{math.Float64bits(m.Lambda), math.Float64bits(m.Intercept)}
		vec, sc = m.Coef, m.scaler
	case *KernelRidge:
		kind, fitted, standardize = kindKernelRidge, m.fitted, m.Standardize
		scalars = [4]uint64{math.Float64bits(m.Kernel.LengthScale), math.Float64bits(m.Kernel.Variance),
			math.Float64bits(m.Alpha), math.Float64bits(m.yMean)}
		rows, vec, sc = m.xTrain, m.dual, m.scaler
	default:
		return nil, fmt.Errorf("ml: cannot marshal model of type %T", r)
	}
	flags := flagIf(fitted, flagFitted) | flagIf(standardize, flagStandardize) | flagIf(sc != nil, flagScaler) |
		flagIf(expand.Interactions, flagInteractions) | flagIf(expand.Squares, flagSquares) | flagIf(expand.Bias, flagBias)
	n, d, sw := len(vec), 0, 0
	if len(rows) > 0 {
		d = len(rows[0])
	}
	if sc != nil {
		sw = len(sc.Mean)
	}
	if (kind != kindLinear && len(rows) != n) || (sc != nil && len(sc.Scale) != sw) || uint64(n|d|sw) > math.MaxUint32 {
		return nil, fmt.Errorf("ml: cannot marshal model: %d rows, %d responses, scaler %d wide", len(rows), n, sw)
	}
	out := make([]byte, headerLen, headerLen+8*(n*d+n+2*sw))
	copy(out, modelMagic)
	out[4], out[5], out[6] = modelVersion, kind, flags
	binary.LittleEndian.PutUint32(out[8:], uint32(n))
	binary.LittleEndian.PutUint32(out[12:], uint32(d))
	binary.LittleEndian.PutUint32(out[16:], uint32(sw))
	for i, s := range scalars {
		binary.LittleEndian.PutUint64(out[20+8*i:], s)
	}
	for i, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("ml: cannot marshal model: row %d has %d features, want %d", i, len(row), d)
		}
		out = appendFloats(out, row)
	}
	out = appendFloats(out, vec)
	if sc != nil {
		out = appendFloats(appendFloats(out, sc.Mean), sc.Scale)
	}
	return out, nil
}

func appendFloats(b []byte, fs []float64) []byte {
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// Unmarshal reconstructs a model serialized by Marshal. The bytes crossed the
// network, so the header is checked against the body's exact length before
// anything is allocated, and the model's rows, vector and scaler all slice
// into one backing array.
func Unmarshal(data []byte) (Regressor, error) {
	if len(data) < headerLen || string(data[:4]) != modelMagic {
		return nil, fmt.Errorf("%w: no %q header in %d bytes", ErrFormat, modelMagic, len(data))
	}
	if data[4] != modelVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrFormat, data[4], modelVersion)
	}
	kind, flags := data[5], data[6]
	// u32 fields: n·d + n + 2·sw cannot overflow a uint64.
	n := uint64(binary.LittleEndian.Uint32(data[8:]))
	d := uint64(binary.LittleEndian.Uint32(data[12:]))
	sw := uint64(binary.LittleEndian.Uint32(data[16:]))
	fitted, standardize, hasScaler := flags&flagFitted != 0, flags&flagStandardize != 0, flags&flagScaler != 0
	expand := FeatureExpander{Interactions: flags&flagInteractions != 0, Squares: flags&flagSquares != 0, Bias: flags&flagBias != 0}
	ok := kind >= kindLinear && kind <= kindKernelRidge && flags&^flagsKnown == 0 && data[7] == 0 && (hasScaler || sw == 0)
	// A scaler must be as wide as what it feeds, or Predict would index past
	// it on a query of the model's own width.
	if kind == kindLinear {
		ok = ok && d == 0 && (!hasScaler || !fitted || n == uint64(expand.width(int(sw))))
	} else {
		ok = ok && (!hasScaler || n == 0 || sw == d)
	}
	if !ok {
		return nil, fmt.Errorf("%w: kind %d flags %#x n=%d d=%d scaler=%d", ErrFormat, kind, flags, n, d, sw)
	}
	body := data[headerLen:]
	if len(body)%8 != 0 || uint64(len(body)/8) != n*d+n+2*sw {
		return nil, fmt.Errorf("%w: %d payload bytes, header wants %d float64s", ErrFormat, len(body), n*d+n+2*sw)
	}
	floats := make([]float64, len(body)/8)
	for i := range floats {
		floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	// take cuts the next k floats off the backing array, capacity-capped so
	// an append to one part cannot overwrite its neighbour.
	take := func(k uint64) []float64 {
		part := floats[:k:k]
		floats = floats[k:]
		return part
	}
	var rows [][]float64
	if n > 0 && kind != kindLinear {
		rows = make([][]float64, n)
		for i := range rows {
			rows[i] = take(d)
		}
	}
	vec := take(n)
	var sc *Scaler
	if hasScaler {
		sc = &Scaler{Mean: take(sw), Scale: take(sw)}
	}
	var scalars [4]uint64
	for i := range scalars {
		scalars[i] = binary.LittleEndian.Uint64(data[20+8*i:])
	}
	f := math.Float64frombits
	switch kind {
	case kindLinear:
		return &Linear{
			Lambda: f(scalars[0]), Intercept: f(scalars[1]), Standardize: standardize, Expand: expand,
			Coef: vec, scaler: sc, fitted: fitted,
		}, nil
	default: // kindKernelRidge: the header check admits no other kind
		return &KernelRidge{
			Kernel: RBFKernel{LengthScale: f(scalars[0]), Variance: f(scalars[1])}, Alpha: f(scalars[2]), Standardize: standardize,
			xTrain: rows, dual: vec, yMean: f(scalars[3]), scaler: sc, fitted: fitted,
		}, nil
	}
}
