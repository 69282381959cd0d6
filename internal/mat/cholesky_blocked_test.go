package mat

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/stats"
)

// choleskyOracle is the scalar column-by-column factorization NewCholesky ran
// before it was blocked, kept as the reference the blocked routine must match
// bit for bit: the factor, and on failure the pivot and its value.
func choleskyOracle(a *Dense) (*Dense, error) {
	n := a.rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lrow := l.data[j*n : j*n+j+1]
		for k := 0; k < j; k++ {
			d -= lrow[k] * lrow[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, &NotPDError{Op: "factor", Pivot: j, Value: d}
		}
		dj := math.Sqrt(d)
		lrow[j] = dj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			irow := l.data[i*n : i*n+j+1]
			for k := 0; k < j; k++ {
				s -= irow[k] * lrow[k]
			}
			irow[j] = s / dj
		}
	}
	return l, nil
}

// sameLower fails unless the lower triangles of the factor and the oracle's L
// hold the same bits.
func sameLower(t *testing.T, what string, c *Cholesky, want *Dense) {
	t.Helper()
	if c.Size() != want.Rows() {
		t.Fatalf("%s: order %d, want %d", what, c.Size(), want.Rows())
	}
	for i := 0; i < c.n; i++ {
		for j := 0; j <= i; j++ {
			if got, w := c.at(i, j), want.At(i, j); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: L[%d,%d] = %x, oracle %x", what, i, j, math.Float64bits(got), math.Float64bits(w))
			}
		}
	}
}

// sameFailure fails unless err is the NotPDError the oracle returned, bit for
// bit. Two NaN values match whatever their payloads: which operand's payload
// a NaN·NaN product keeps depends on the register the compiler multiplies
// into, which it may choose differently in two loops.
func sameFailure(t *testing.T, what string, err, want error) {
	t.Helper()
	var got, w *NotPDError
	if !errors.As(want, &w) {
		t.Fatalf("%s: oracle accepted the matrix", what)
	}
	if !errors.As(err, &got) {
		t.Fatalf("%s: err = %v, oracle %v", what, err, want)
	}
	sameValue := math.Float64bits(got.Value) == math.Float64bits(w.Value) || (math.IsNaN(got.Value) && math.IsNaN(w.Value))
	if got.Op != w.Op || got.Pivot != w.Pivot || !sameValue {
		t.Fatalf("%s: %v, oracle %v", what, got, w)
	}
}

// withProcs runs f under each GOMAXPROCS setting, restoring the old one. The
// tests that use it cannot be parallel.
func withProcs(t *testing.T, procs []int, f func(t *testing.T)) {
	for _, p := range procs {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			f(t)
		})
	}
}

// blockedSizes straddles the panel width, twice it, and the sizes at which
// the fold starts fanning out to two and to more workers.
var blockedSizes = []int{1, 2, 31, 32, 33, 63, 64, 65, 255, 256, 257, 333, 520}

func TestCholeskyBlockedMatchesOracle(t *testing.T) {
	inputs := make([]*Dense, len(blockedSizes))
	oracles := make([]*Dense, len(blockedSizes))
	for k, n := range blockedSizes {
		inputs[k] = randSPD(stats.NewRNG(uint64(1000+n)), n)
		l, err := choleskyOracle(inputs[k])
		if err != nil {
			t.Fatalf("n=%d: oracle: %v", n, err)
		}
		oracles[k] = l
	}
	withProcs(t, []int{1, 2, 3, 8}, func(t *testing.T) {
		for k, n := range blockedSizes {
			a, want := inputs[k].Clone(), oracles[k]
			ch, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			sameLower(t, fmt.Sprintf("NewCholesky n=%d", n), ch, want)
			for i, v := range a.data {
				if math.Float64bits(v) != math.Float64bits(inputs[k].data[i]) {
					t.Fatalf("n=%d: NewCholesky changed its argument at %d", n, i)
				}
			}
			in, err := NewCholeskyInPlace(a)
			if err != nil {
				t.Fatalf("n=%d: in place: %v", n, err)
			}
			sameLower(t, fmt.Sprintf("NewCholeskyInPlace n=%d", n), in, want)
		}
	})
}

func TestCholeskyBlockedSameFailure(t *testing.T) {
	// The pivot that fails sits inside a panel, on a panel's first column, on
	// the very first column, and in the last, partial panel; the 300-row cases
	// fail after panels that fanned out.
	type failing struct {
		what string
		a    *Dense
		want error
	}
	var cases []failing
	for _, tc := range []struct{ n, pivot int }{{100, 45}, {100, 64}, {100, 0}, {100, 98}, {300, 256}, {300, 299}, {40, 31}} {
		spd := randSPD(stats.NewRNG(uint64(7*tc.n+tc.pivot)), tc.n)
		for _, bad := range []float64{-1, 0, math.NaN()} {
			// Sinking one diagonal entry makes the matrix lose definiteness at
			// or before tc.pivot; the oracle says where exactly.
			a := spd.Clone()
			a.Set(tc.pivot, tc.pivot, bad)
			_, want := choleskyOracle(a)
			cases = append(cases, failing{fmt.Sprintf("n=%d pivot=%d diag=%g", tc.n, tc.pivot, bad), a, want})
		}
	}
	withProcs(t, []int{1, 2, 3, 8}, func(t *testing.T) {
		for _, tc := range cases {
			_, err := NewCholesky(tc.a)
			sameFailure(t, tc.what, err, tc.want)
			if !errors.Is(err, ErrNotPositiveDefinite) || !errors.Is(err, ErrSingular) {
				t.Fatalf("%s: %v does not match the sentinels", tc.what, err)
			}
			_, err = NewCholeskyInPlace(tc.a.Clone())
			sameFailure(t, tc.what+" in place", err, tc.want)
		}
	})
}

// TestCholeskyInPlaceOperations checks that a factor built in place, whose
// upper triangle holds whatever the caller left there, behaves as the copied
// one does under every operation that reads or grows it.
func TestCholeskyInPlaceOperations(t *testing.T) {
	t.Parallel()
	const n = 70
	rng := stats.NewRNG(42)
	a := randSPD(rng, n)
	cp, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	dirty := a.Clone()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dirty.Set(i, j, math.NaN())
		}
	}
	in, err := NewCholeskyInPlace(dirty)
	if err != nil {
		t.Fatal(err)
	}
	vec := func() []float64 {
		v := make([]float64, in.Size())
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	sameVec := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %g, copy path %g", what, i, got[i], want[i])
			}
		}
	}
	compare := func(stage string) {
		t.Helper()
		sameLower(t, stage, in, cp.L())
		if maxAbsDiff(in.L(), cp.L()) != 0 || maxAbsDiff(in.Reconstruct(), cp.Reconstruct()) != 0 {
			t.Fatalf("%s: L or Reconstruct differ (the upper triangle leaked)", stage)
		}
		b := vec()
		x1, err1 := in.SolveVec(b)
		x2, err2 := cp.SolveVec(b)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: SolveVec: %v / %v", stage, err1, err2)
		}
		sameVec(stage+": SolveVec", x1, x2)
		y1, y2 := append([]float64(nil), b...), append([]float64(nil), b...)
		err1, err2 = in.SolveTriLowerInPlace(y1), cp.SolveTriLowerInPlace(y2)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: SolveTriLowerInPlace: %v / %v", stage, err1, err2)
		}
		sameVec(stage+": SolveTriLowerInPlace", y1, y2)
	}
	compare("factor")
	x := vec()
	for i := range x {
		x[i] *= 0.1
	}
	if err1, err2 := in.Update(x), cp.Update(x); err1 != nil || err2 != nil {
		t.Fatalf("Update: %v / %v", err1, err2)
	}
	compare("update")
	if err1, err2 := in.Downdate(x), cp.Downdate(x); err1 != nil || err2 != nil {
		t.Fatalf("Downdate: %v / %v", err1, err2)
	}
	compare("downdate")
	a12 := vec()
	if err1, err2 := in.AppendRow(a12, 1e4), cp.AppendRow(a12, 1e4); err1 != nil || err2 != nil {
		t.Fatalf("AppendRow: %v / %v", err1, err2)
	}
	compare("append")
}
