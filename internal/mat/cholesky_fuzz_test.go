package mat

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzCholeskyUpdate drives a Cholesky factor through an arbitrary sequence
// of rank-1 updates, downdates, appends, and shrinks derived from the fuzz
// input, mirroring every successful operation on a dense shadow matrix. The
// invariants: no operation panics (including on near-singular and non-finite
// inputs), a failed operation leaves the factor bit-usable, every entry of
// the factor stays finite, and the factor always reconstructs the shadow
// matrix within tolerance.
func FuzzCholeskyUpdate(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 128, 63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{2, 2, 255, 255, 255, 255, 1, 1, 1, 1, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0]%6)
		data = data[1:]
		// nextF64 derives a bounded float from the input; occasionally it
		// passes through a raw bit pattern so NaN/Inf payloads are exercised.
		next := func() float64 {
			if len(data) == 0 {
				return 0.5
			}
			b := data[0]
			data = data[1:]
			if b == 255 && len(data) >= 8 {
				raw := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return raw
			}
			return float64(int(b)-128) / 16
		}
		// Build a guaranteed-SPD seed matrix A = GᵀG + (n+1)·I. The seed uses
		// only bounded entries — NaN/Inf payloads are reserved for the op
		// vectors below, where rejection (not a seed failure) is the contract.
		g := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := next()
				if math.IsNaN(v) || math.Abs(v) > 1e6 {
					v = 1
				}
				g.Set(i, j, v)
			}
		}
		a := AtA(g)
		AddDiag(a, float64(n)+1)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("seed SPD matrix failed to factor: %v", err)
		}
		shadow := a.Clone()

		checkFinite := func(op string) {
			for i := 0; i < ch.Size(); i++ {
				for j := 0; j <= i; j++ {
					if v := ch.at(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s left non-finite L[%d][%d] = %g", op, i, j, v)
					}
				}
			}
		}
		checkReconstruct := func(op string) {
			if ch.Size() != shadow.Rows() {
				t.Fatalf("%s: factor order %d, shadow %d", op, ch.Size(), shadow.Rows())
			}
			rec := ch.Reconstruct()
			tol := 1e-6 * (1 + traceAbs(shadow))
			for i := 0; i < shadow.Rows(); i++ {
				for j := 0; j < shadow.Cols(); j++ {
					if d := math.Abs(rec.At(i, j) - shadow.At(i, j)); d > tol {
						t.Fatalf("%s: reconstruction off by %g at (%d,%d) (tol %g)", op, d, i, j, tol)
					}
				}
			}
		}

		for steps := 0; steps < 24 && len(data) > 0; steps++ {
			op := data[0] % 4
			data = data[1:]
			m := ch.Size()
			switch op {
			case 0, 1: // update (0) / downdate (1)
				x := make([]float64, m)
				finite := true
				for i := range x {
					x[i] = next()
					if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
						finite = false
					}
				}
				var err error
				if op == 0 {
					err = ch.Update(x)
				} else {
					err = ch.Downdate(x)
				}
				if err != nil {
					if !errors.Is(err, ErrNotPositiveDefinite) {
						t.Fatalf("rank-1 op returned unexpected error kind: %v", err)
					}
					checkFinite("failed rank-1 op")
					checkReconstruct("failed rank-1 op")
					continue
				}
				if !finite {
					t.Fatalf("rank-1 op accepted non-finite vector %v", x)
				}
				sign := 1.0
				if op == 1 {
					sign = -1
				}
				for i := 0; i < m; i++ {
					for j := 0; j < m; j++ {
						shadow.Set(i, j, shadow.At(i, j)+sign*x[i]*x[j])
					}
				}
			case 2: // append one row
				a12 := make([]float64, m)
				for i := range a12 {
					a12[i] = next()
				}
				a22 := math.Abs(next()) + float64(m) + 1
				if err := ch.AppendRow(a12, a22); err != nil {
					if !errors.Is(err, ErrNotPositiveDefinite) {
						t.Fatalf("AppendRow returned unexpected error kind: %v", err)
					}
					checkFinite("failed append")
					checkReconstruct("failed append")
					continue
				}
				grown := NewDense(m+1, m+1)
				for i := 0; i < m; i++ {
					for j := 0; j < m; j++ {
						grown.Set(i, j, shadow.At(i, j))
					}
				}
				for i := 0; i < m; i++ {
					grown.Set(m, i, a12[i])
					grown.Set(i, m, a12[i])
				}
				grown.Set(m, m, a22)
				shadow = grown
			case 3: // shrink
				if m <= 1 {
					continue
				}
				ch.Shrink()
				lead := NewDense(m-1, m-1)
				for i := 0; i < m-1; i++ {
					for j := 0; j < m-1; j++ {
						lead.Set(i, j, shadow.At(i, j))
					}
				}
				shadow = lead
			}
			checkFinite("op")
			checkReconstruct("op")
		}
	})
}

// FuzzCholeskyBlocked holds the blocked factorization to the scalar oracle on
// arbitrary input: a random order up to 96 (three panels), entries drawn from
// the fuzz bytes (raw bit patterns included, so NaN, Inf and denormals reach
// it), with or without a diagonal boost that makes the matrix positive
// definite. Where the oracle factors, every L[i,j] must be the same bits;
// where it fails, the error must name the same pivot with the same value.
func FuzzCholeskyBlocked(f *testing.F) {
	f.Add([]byte{40, 1, 3, 200, 17, 90, 4, 4, 8})
	f.Add([]byte{95, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{33, 1, 255, 0, 0, 0, 0, 0, 0, 248, 127, 9, 9})
	f.Add([]byte{64, 0, 255, 1, 0, 0, 0, 0, 0, 0, 0, 77})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%96
		boost := data[1]%2 == 1
		data = data[2:]
		// The input bytes are walked cyclically, so a short input still fills
		// the whole triangle.
		pos := 0
		next := func() float64 {
			b := data[pos%len(data)]
			pos++
			if b == 255 {
				var raw [8]byte
				for i := range raw {
					raw[i] = data[(pos+i)%len(data)]
				}
				pos += 8
				return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
			}
			return float64(int(b)-128) / 16
		}
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				a.Set(i, j, next())
			}
			if boost {
				a.Set(i, i, math.Abs(a.At(i, i))+8*float64(n))
			}
		}
		want, wantErr := choleskyOracle(a)
		for _, factor := range []func(*Dense) (*Cholesky, error){NewCholesky, NewCholeskyInPlace} {
			got, err := factor(a.Clone())
			if wantErr != nil {
				sameFailure(t, "fuzz", err, wantErr)
				continue
			}
			if err != nil {
				t.Fatalf("oracle factored, blocked failed: %v", err)
			}
			sameLower(t, "fuzz", got, want)
		}
	})
}
