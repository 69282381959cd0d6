package mat

import (
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDenseBasics(t *testing.T) {
	t.Parallel()
	m := NewDense(2, 3)
	if r, c := m.Dims(); r != 2 || c != 3 {
		t.Fatalf("Dims = %d,%d; want 2,3", r, c)
	}
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 {
		t.Fatalf("At/Set round trip failed: %v", m.Data())
	}
	cl := m.Clone()
	cl.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	t.Parallel()
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if r, c := tr.Dims(); r != 3 || c != 2 {
		t.Fatalf("transpose dims = %d,%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	t.Parallel()
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data()[i] != v {
			t.Fatalf("Mul = %v; want %v", c.Data(), want)
		}
	}
	if _, err := Mul(a, a); err == nil {
		t.Fatal("Mul with mismatched dims should error")
	}
}

func TestMulVec(t *testing.T) {
	t.Parallel()
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y, err := MulVec(a, []float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MulVec = %v; want [-2 -2]", y)
	}
	if _, err := MulVec(a, []float64{1}); err == nil {
		t.Fatal("MulVec shape mismatch should error")
	}
}

func TestAtAMatchesExplicit(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(7)
	a := NewDense(5, 3)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	g := AtA(a)
	explicit, err := Mul(a.T(), a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data() {
		if !almostEq(g.Data()[i], explicit.Data()[i], 1e-12) {
			t.Fatalf("AtA mismatch at %d: %g vs %g", i, g.Data()[i], explicit.Data()[i])
		}
	}
}

func TestAtVec(t *testing.T) {
	t.Parallel()
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	v, err := AtVec(a, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 4 || v[1] != 6 {
		t.Fatalf("AtVec = %v; want [4 6]", v)
	}
}

func TestCholeskySolve(t *testing.T) {
	t.Parallel()
	// A = LLᵀ for a hand-built SPD matrix.
	a := NewDenseData(3, 3, []float64{
		4, 2, 0,
		2, 5, 1,
		0, 1, 3,
	})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 3}
	b, _ := MulVec(a, want)
	x, err := ch.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-10) {
			t.Fatalf("solve = %v; want %v", x, want)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	t.Parallel()
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, −1
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("Cholesky of indefinite matrix should fail")
	}
}

func TestSolveRidgeShrinks(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(3)
	n, p := 50, 3
	x := NewDense(n, p)
	truth := []float64{5, -3, 1}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = Dot(x.Row(i), truth)
	}
	b0, err := SolveRidge(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	bBig, err := SolveRidge(x, y, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(bBig) >= Norm2(b0) {
		t.Fatalf("ridge with huge lambda should shrink: ‖b0‖=%g ‖bBig‖=%g", Norm2(b0), Norm2(bBig))
	}
}

func TestSolveRidgeCollinear(t *testing.T) {
	t.Parallel()
	// Two identical columns: normal equations singular, but the automatic
	// jitter must still produce a finite solution.
	x := NewDenseData(4, 2, []float64{1, 1, 2, 2, 3, 3, 4, 4})
	y := []float64{2, 4, 6, 8}
	b, err := SolveRidge(x, y, 0)
	if err != nil {
		t.Fatalf("collinear ridge solve failed: %v", err)
	}
	for _, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite solution %v", b)
		}
	}
}

// Property: for random SPD systems, Cholesky solve reproduces the RHS.
func TestPropCholeskyResidual(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := stats.NewRNG(uint64(seed))
		n := 2 + rng.Intn(6)
		g := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, rng.NormFloat64())
			}
		}
		a := AtA(g)
		AddDiag(a, float64(n)) // ensure SPD
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := ch.SolveVec(b)
		if err != nil {
			return false
		}
		ax, _ := MulVec(a, x)
		for i := range b {
			if !almostEq(ax[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDotNorm(t *testing.T) {
	t.Parallel()
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 wrong")
	}
}
