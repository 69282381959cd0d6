package mat

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/rockhopper-db/rockhopper/internal/stats"
)

// randSPD builds a random symmetric positive definite n×n matrix with a
// diagonal boost that keeps it comfortably conditioned.
func randSPD(rng *stats.RNG, n int) *Dense {
	g := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, rng.NormFloat64())
		}
	}
	a := AtA(g)
	AddDiag(a, float64(n))
	return a
}

// maxAbsDiff returns the largest elementwise |a−b|.
func maxAbsDiff(a, b *Dense) float64 {
	var m float64
	for i, v := range a.Data() {
		if d := math.Abs(v - b.Data()[i]); d > m {
			m = d
		}
	}
	return m
}

func TestCholeskyTypedErrors(t *testing.T) {
	t.Parallel()
	// Dimension mismatch: non-square input is ErrShape, never a PD error.
	if _, err := NewCholesky(NewDense(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square Cholesky: err = %v; want ErrShape", err)
	} else if errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("non-square Cholesky wrongly matched ErrNotPositiveDefinite: %v", err)
	}
	// Indefinite input: *NotPDError matching both the specific sentinel and,
	// for backward compatibility, ErrSingular — but not ErrShape.
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, −1
	_, err := NewCholesky(a)
	if err == nil {
		t.Fatal("Cholesky of indefinite matrix should fail")
	}
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v; want ErrNotPositiveDefinite", err)
	}
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v; want legacy ErrSingular match", err)
	}
	if errors.Is(err, ErrShape) {
		t.Fatalf("indefinite matrix wrongly matched ErrShape: %v", err)
	}
	var npd *NotPDError
	if !errors.As(err, &npd) {
		t.Fatalf("err = %T; want *NotPDError", err)
	}
	if npd.Pivot != 1 || npd.Op != "factor" {
		t.Fatalf("NotPDError = %+v; want pivot 1 in op factor", npd)
	}

	// Shape errors on the rank-1 operations.
	ch, errNew := NewCholesky(NewDenseData(2, 2, []float64{2, 0, 0, 2}))
	if errNew != nil {
		t.Fatal(errNew)
	}
	if err := ch.Update([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("Update wrong length: err = %v; want ErrShape", err)
	}
	if err := ch.Downdate([]float64{1, 2, 3}); !errors.Is(err, ErrShape) {
		t.Fatalf("Downdate wrong length: err = %v; want ErrShape", err)
	}
	if err := ch.AppendRow([]float64{1, 2, 3}, 4); !errors.Is(err, ErrShape) {
		t.Fatalf("AppendRow wrong length: err = %v; want ErrShape", err)
	}
	// Downdating by a vector larger than the matrix loses definiteness and
	// must leave the factor untouched.
	before := ch.L()
	if err := ch.Downdate([]float64{10, 0}); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("oversized downdate: err = %v; want ErrNotPositiveDefinite", err)
	}
	if diff := maxAbsDiff(before, ch.L()); diff != 0 {
		t.Fatalf("failed downdate modified the factor (max diff %g)", diff)
	}
}

// Property: Update then Downdate with the same vector round-trips the
// factor, and each individually reconstructs A ± xxᵀ.
func TestPropCholeskyUpdateDowndate(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := stats.NewRNG(uint64(seed))
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if err := ch.Update(x); err != nil {
			return false
		}
		want := a.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want.Set(i, j, want.At(i, j)+x[i]*x[j])
			}
		}
		if maxAbsDiff(ch.Reconstruct(), want) > 1e-8*(1+traceAbs(want)) {
			return false
		}
		if err := ch.Downdate(x); err != nil {
			return false
		}
		return maxAbsDiff(ch.Reconstruct(), a) < 1e-8*(1+traceAbs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: growing a factor row by row with AppendRow matches factoring the
// full matrix at once, and Shrink inverts the growth.
func TestPropCholeskyAppendRow(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := stats.NewRNG(uint64(seed))
		n := 2 + rng.Intn(10)
		a := randSPD(rng, n)
		// Factor the 1×1 leading block, then append the rest.
		ch, err := NewCholesky(NewDenseData(1, 1, []float64{a.At(0, 0)}))
		if err != nil {
			return false
		}
		for k := 1; k < n; k++ {
			a12 := make([]float64, k)
			for i := 0; i < k; i++ {
				a12[i] = a.At(k, i)
			}
			if err := ch.AppendRow(a12, a.At(k, k)); err != nil {
				return false
			}
		}
		full, err := NewCholesky(a)
		if err != nil {
			return false
		}
		if ch.Size() != n || maxAbsDiff(ch.L(), full.L()) > 1e-9*(1+traceAbs(a)) {
			return false
		}
		// Solves through the grown factor agree with the batch factor.
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xg, err1 := ch.SolveVec(b)
		xf, err2 := full.SolveVec(b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range xg {
			if !almostEq(xg[i], xf[i], 1e-9) {
				return false
			}
		}
		// Shrink back to the leading block and compare against its factor.
		ch.Shrink()
		lead := NewDense(n-1, n-1)
		for i := 0; i < n-1; i++ {
			for j := 0; j < n-1; j++ {
				lead.Set(i, j, a.At(i, j))
			}
		}
		leadCh, err := NewCholesky(lead)
		if err != nil {
			return false
		}
		return maxAbsDiff(ch.L(), leadCh.L()) < 1e-9*(1+traceAbs(lead))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// AppendRow must reject a bordered matrix whose Schur complement is not
// positive, leaving the factor usable.
func TestCholeskyAppendRowRejectsNotPD(t *testing.T) {
	t.Parallel()
	ch, err := NewCholesky(NewDenseData(2, 2, []float64{4, 0, 0, 4}))
	if err != nil {
		t.Fatal(err)
	}
	// a22 too small: 1 − (2·2)/4 − (2·2)/4 < 0.
	err = ch.AppendRow([]float64{2, 2}, 1)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v; want ErrNotPositiveDefinite", err)
	}
	var npd *NotPDError
	if !errors.As(err, &npd) || npd.Op != "append" || npd.Pivot != 2 {
		t.Fatalf("NotPDError = %+v; want append at pivot 2", err)
	}
	if ch.Size() != 2 {
		t.Fatalf("failed append changed the order to %d", ch.Size())
	}
	// The factor still works.
	if _, err := ch.SolveVec([]float64{1, 1}); err != nil {
		t.Fatalf("factor unusable after failed append: %v", err)
	}
}

// The in-place solves must agree with the allocating ones (the GP's
// zero-allocation predict path relies on them).
func TestCholeskySolveInPlaceAgreement(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(7)
	a := randSPD(rng, 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, err := ch.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), b...)
	if err := ch.SolveVecInPlace(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SolveVecInPlace diverges at %d: %g != %g", i, got[i], want[i])
		}
	}
	gotL := append([]float64(nil), b...)
	if err := ch.SolveTriLowerInPlace(gotL); err != nil {
		t.Fatal(err)
	}
	ly, err := MulVec(ch.L(), gotL)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !almostEq(ly[i], b[i], 1e-12) {
			t.Fatalf("SolveTriLowerInPlace: (L·y)[%d] = %g, want %g", i, ly[i], b[i])
		}
	}
}

// TestSolveTriLowerInPlace: the forward substitution the GP's variance path
// runs solves L·y = b to working precision at every order, including the
// trivial 1×1 factor and factors spanning several panelWidth-column panels,
// and refuses a right-hand side of the wrong length without touching it.
func TestSolveTriLowerInPlace(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 3, 17, 96} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			rng := stats.NewRNG(uint64(40 + n))
			ch, err := NewCholesky(randSPD(rng, n))
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			y := append([]float64(nil), b...)
			if err := ch.SolveTriLowerInPlace(y); err != nil {
				t.Fatal(err)
			}
			ly, err := MulVec(ch.L(), y)
			if err != nil {
				t.Fatal(err)
			}
			for i := range b {
				if !almostEq(ly[i], b[i], 1e-10) {
					t.Fatalf("(L·y)[%d] = %g, want %g", i, ly[i], b[i])
				}
			}
		})
	}
	t.Run("wrong length", func(t *testing.T) {
		t.Parallel()
		ch, err := NewCholesky(randSPD(stats.NewRNG(5), 4))
		if err != nil {
			t.Fatal(err)
		}
		b := []float64{1, 2, 3}
		if err := ch.SolveTriLowerInPlace(b); !errors.Is(err, ErrShape) {
			t.Fatalf("rhs of length 3 against order 4: err = %v, want ErrShape", err)
		}
		if b[0] != 1 || b[1] != 2 || b[2] != 3 {
			t.Fatalf("a refused rhs was modified: %v", b)
		}
	})
}
