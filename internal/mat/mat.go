// Package mat implements the dense linear algebra needed by Rockhopper's
// machine-learning substrate: dense matrices and vectors, Cholesky and QR
// factorizations, triangular and symmetric positive-definite solves, and
// least-squares solvers.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement: every routine exists because a surrogate model in
// internal/ml needs it. Matrices are stored row-major in a single backing
// slice.
//
// The Cholesky factorization is the one routine written for speed, because a
// model refit on a long history is little else: it is blocked in panels of 32
// columns, can factor in place (NewCholeskyInPlace), and splits the rows under
// each panel across GOMAXPROCS goroutines (FanOut) once a matrix reaches 256
// rows. None of that changes a bit of the result: every entry of the factor
// accumulates its products in the order the textbook column-by-column loop
// does, so two nodes with different core counts train byte-identical models
// from the same history. DESIGN.md §9 "The factorization" has the argument and
// the measurements; the scalar loop lives on as the test oracle.
package mat

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular (or not positive definite, for Cholesky) to working
// precision.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// ErrNotPositiveDefinite is returned (wrapped in a *NotPDError) when a
// Cholesky factorization, downdate, or append encounters a matrix that is
// not positive definite to working precision. It is distinct from ErrShape:
// a dimension mismatch is a caller bug, while loss of positive definiteness
// is a numerical property of the data that callers may legitimately handle
// (e.g. by adding jitter and retrying).
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// NotPDError reports exactly where a Cholesky operation lost positive
// definiteness: the pivot index and the offending (non-positive or
// non-finite) pivot value. It matches both ErrNotPositiveDefinite and, for
// backward compatibility, ErrSingular under errors.Is.
type NotPDError struct {
	// Op is the operation that failed: "factor", "downdate", or "append".
	Op string
	// Pivot is the zero-based pivot index at which definiteness was lost.
	Pivot int
	// Value is the offending squared-pivot value (≤ 0 or NaN).
	Value float64
}

func (e *NotPDError) Error() string {
	return fmt.Sprintf("mat: %s: not positive definite at pivot %d (value %g)", e.Op, e.Pivot, e.Value)
}

// Unwrap lets errors.Is match both the specific and the legacy sentinel.
func (e *NotPDError) Unwrap() []error {
	return []error{ErrNotPositiveDefinite, ErrSingular}
}

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps data (row-major, length r*c) without copying.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic("mat: data length does not match dimensions")
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view of row i (shared backing storage).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the backing slice (row-major, shared).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// String renders a small matrix for debugging.
func (m *Dense) String() string {
	s := fmt.Sprintf("Dense(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows && i < 6; i++ {
		s += fmt.Sprintf("%v", m.Row(i))
		if i < m.rows-1 {
			s += "; "
		}
	}
	if m.rows > 6 {
		s += "..."
	}
	return s + "]"
}

// Mul returns a*b.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: (%dx%d)*(%dx%d)", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns a*x as a new vector.
func MulVec(a *Dense, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, fmt.Errorf("%w: (%dx%d)*vec(%d)", ErrShape, a.rows, a.cols, len(x))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		out[i] = Dot(a.Row(i), x)
	}
	return out, nil
}

// AtA returns aᵀa, the (cols×cols) Gram matrix of a. Only the result's upper
// triangle is computed directly; the lower triangle is mirrored.
func AtA(a *Dense) *Dense {
	n := a.cols
	out := NewDense(n, n)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		for p := 0; p < n; p++ {
			rp := row[p]
			if rp == 0 {
				continue
			}
			orow := out.Row(p)
			for q := p; q < n; q++ {
				orow[q] += rp * row[q]
			}
		}
	}
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			out.Set(q, p, out.At(p, q))
		}
	}
	return out
}

// AtVec returns aᵀy.
func AtVec(a *Dense, y []float64) ([]float64, error) {
	if a.rows != len(y) {
		return nil, fmt.Errorf("%w: (%dx%d)ᵀ*vec(%d)", ErrShape, a.rows, a.cols, len(y))
	}
	out := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		row := a.Row(i)
		for j, v := range row {
			out[j] += v * yi
		}
	}
	return out, nil
}

// Dot returns the inner product of x and y, which must be the same length.
func Dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// AddDiag adds v to every diagonal element of the square matrix m in place.
func AddDiag(m *Dense, v float64) {
	if m.rows != m.cols {
		panic("mat: AddDiag on non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] += v
	}
}

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L Lᵀ.
//
// The factor is stored in a row-major block whose row stride may exceed the
// logical order n: AppendRow grows the factor by one observation in
// amortized O(n²) (doubling the backing capacity when exhausted) instead of
// refactorizing in O(n³), and Update/Downdate apply rank-1 modifications
// A ± x xᵀ in O(n²). This is the substrate of the incremental surrogate
// path in internal/ml.
type Cholesky struct {
	n       int       // logical order of the factor
	stride  int       // row stride of data; n ≤ stride
	data    []float64 // stride×stride backing; L is the lower triangle of the leading n×n block, the rest is garbage
	scratch []float64 // reusable workspace for rank-1 ops (len ≥ n)
	backup  []float64 // snapshot buffer so a failed downdate leaves L intact
}

// NewCholesky factors the symmetric positive definite matrix a. Only the
// lower triangle of a is read, and a is left untouched. It returns a
// *NotPDError (matching both ErrNotPositiveDefinite and ErrSingular) if a is
// not positive definite to working precision, and ErrShape if a is not
// square.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	lower := NewDense(n, n)
	for i := 0; i < n; i++ {
		copy(lower.data[i*n:i*n+i+1], a.data[i*n:i*n+i+1])
	}
	return NewCholeskyInPlace(lower)
}

// NewCholeskyInPlace is NewCholesky without the copy: the factor overwrites
// the lower triangle of a, whose storage the returned Cholesky owns from then
// on. The caller must not use a again, whether the call succeeds or fails (a
// failed factorization leaves it half overwritten). The upper triangle of a
// is never read or written, so every entry of the factor is bit-identical to
// what NewCholesky(a) computes.
func NewCholeskyInPlace(a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, a.rows, a.cols)
	}
	c := &Cholesky{n: a.rows, stride: a.rows, data: a.data}
	if err := c.factor(); err != nil {
		return nil, err
	}
	return c, nil
}

const (
	// panelWidth is the number of columns factored together: the 32×32
	// diagonal block every row below is finished against is 8 KiB and stays
	// in L1, and a row's fold reuses each L[i,k] it loads 32 times.
	panelWidth = 32
	// fanOutMinWork is the fewest multiply-adds below one panel that are
	// split across goroutines: 2¹⁹ is ≈ 150 µs of serial work, well above
	// what waking an idle processor costs, and no panel of a matrix under
	// 256×256 reaches it.
	fanOutMinWork = 1 << 19
	// fanOutRows is how many rows a worker claims at a time: enough work
	// (≥ 2¹⁴ multiply-adds from the second panel on) to hide the shared
	// counter, few enough that a slow worker strands little.
	fanOutRows = 16
)

// factor overwrites the lower triangle of c.data, which holds A, with L such
// that A = L Lᵀ. It is a blocked left-looking factorization. For each panel
// of panelWidth columns [lo, hi), fold subtracts from every entry of the
// panel the products of the columns k < lo finished by earlier panels; the
// rest of the sum, over the panel's own columns, and the division by the
// pivot are applied first to the diagonal block, whose rows depend on one
// another, and then to the rows below it, which depend only on the block and
// so are split across goroutines when there are enough of them.
//
// Every L[i,j] is A[i,j] minus L[i,k]·L[j,k] for k = 0 … j−1 in ascending
// order, one rounded multiply and one rounded subtract per k, exactly as the
// unblocked column-by-column loop computes it: blocking and fan-out change
// which entry is worked on next, never the order of operations inside an
// entry. The factor, and a NotPDError's pivot and value, are therefore
// bit-identical for any panel width and any number of workers.
func (c *Cholesky) factor() error {
	n := c.n
	for lo := 0; lo < n; lo += panelWidth {
		hi := lo + panelWidth
		if hi > n {
			hi = n
		}
		c.fold(lo, hi, lo, hi)
		if err := c.finishBlock(lo, hi); err != nil {
			return err
		}
		if (n-hi)*(hi-lo)*hi < fanOutMinWork {
			c.below(lo, hi, hi, n)
		} else {
			FanOut(hi, n, fanOutRows, func(from, to int) { c.below(lo, hi, from, to) })
		}
	}
	return nil
}

// fold subtracts Σ_{k<lo} L[i,k]·L[j,k] from entry (i, j) for rows i in
// [from, to) and the panel's columns j in [lo, hi) at or left of the
// diagonal. Four entries of a row are accumulated per pass over k so that one
// load of L[i,k] feeds four independent subtract chains; the blocking is over
// outputs only, each chain still runs k upwards.
func (c *Cholesky) fold(lo, hi, from, to int) {
	if lo == 0 {
		return
	}
	s, d := c.stride, c.data
	for i := from; i < to; i++ {
		end := hi
		if end > i+1 {
			end = i + 1
		}
		li := d[i*s : i*s+lo]
		out := d[i*s : i*s+end]
		j := lo
		for ; j+4 <= end; j += 4 {
			l0 := d[j*s : j*s+lo][:len(li)]
			l1 := d[(j+1)*s : (j+1)*s+lo][:len(li)]
			l2 := d[(j+2)*s : (j+2)*s+lo][:len(li)]
			l3 := d[(j+3)*s : (j+3)*s+lo][:len(li)]
			s0, s1, s2, s3 := out[j], out[j+1], out[j+2], out[j+3]
			for k, v := range li {
				s0 -= v * l0[k]
				s1 -= v * l1[k]
				s2 -= v * l2[k]
				s3 -= v * l3[k]
			}
			out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
		}
		for ; j < end; j++ {
			lj := d[j*s : j*s+lo][:len(li)]
			sum := out[j]
			for k, v := range li {
				sum -= v * lj[k]
			}
			out[j] = sum
		}
	}
}

// tail returns row[j] − Σ_{lo≤k<j} row[k]·L[j,k]: what is left of entry j of
// a folded row once the panel's own columns left of j are applied.
func (c *Cholesky) tail(row []float64, lo, j int) float64 {
	lj := c.data[j*c.stride+lo : j*c.stride+j]
	li := row[lo:j][:len(lj)]
	sum := row[j]
	for k, v := range lj {
		sum -= li[k] * v
	}
	return sum
}

// finishBlock completes the panel's diagonal block after fold, top row
// first: a pivot is checked only after every pivot above it passed, so the
// first failure is the one the column-by-column loop reports.
func (c *Cholesky) finishBlock(lo, hi int) error {
	s, d := c.stride, c.data
	for i := lo; i < hi; i++ {
		row := d[i*s : i*s+i+1]
		for j := lo; j < i; j++ {
			row[j] = c.tail(row, lo, j) / d[j*s+j]
		}
		sum := c.tail(row, lo, i)
		if sum <= 0 || math.IsNaN(sum) {
			return &NotPDError{Op: "factor", Pivot: i, Value: sum}
		}
		row[i] = math.Sqrt(sum)
	}
	return nil
}

// below folds and then completes the panel's columns in rows [from, to)
// under the finished diagonal block.
func (c *Cholesky) below(lo, hi, from, to int) {
	c.fold(lo, hi, from, to)
	s, d := c.stride, c.data
	for i := from; i < to; i++ {
		row := d[i*s : i*s+hi]
		for j := lo; j < hi; j++ {
			row[j] = c.tail(row, lo, j) / d[j*s+j]
		}
	}
}

// FanOut calls fn(from, to) over consecutive chunks of at most chunk indices
// that together cover [lo, hi), on up to GOMAXPROCS goroutines (the caller's
// included), and returns when every call has. Workers claim the next chunk
// from a shared counter, so a worker that is slow or never scheduled costs
// the others only the chunk it holds. fn must be safe to run concurrently on
// disjoint ranges.
func FanOut(lo, hi, chunk int, fn func(from, to int)) {
	workers := runtime.GOMAXPROCS(0)
	if chunks := (hi - lo + chunk - 1) / chunk; workers > chunks {
		workers = chunks
	}
	if workers < 2 {
		if lo < hi {
			fn(lo, hi)
		}
		return
	}
	var next atomic.Int64
	next.Store(int64(lo))
	work := func() {
		for {
			to := int(next.Add(int64(chunk)))
			from := to - chunk
			if from >= hi {
				return
			}
			if to > hi {
				to = hi
			}
			fn(from, to)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Size returns the order n of the factored matrix.
func (c *Cholesky) Size() int { return c.n }

// at reads L[i][j] from the strided backing block.
func (c *Cholesky) at(i, j int) float64 { return c.data[i*c.stride+j] }

// L returns a copy of the lower-triangular factor as an n×n Dense. Only the
// lower triangle of the backing block is copied: above the diagonal the block
// holds garbage by contract (after NewCholeskyInPlace, whatever the caller's
// matrix held there), and the copy holds zeros.
func (c *Cholesky) L() *Dense {
	out := NewDense(c.n, c.n)
	for i := 0; i < c.n; i++ {
		copy(out.Row(i)[:i+1], c.data[i*c.stride:i*c.stride+i+1])
	}
	return out
}

// Reconstruct returns L Lᵀ, the matrix the factor currently represents,
// reading the lower triangle of the backing block only (see L). Intended for
// tests and diagnostics; it allocates a fresh n×n Dense.
func (c *Cholesky) Reconstruct() *Dense {
	out := NewDense(c.n, c.n)
	for i := 0; i < c.n; i++ {
		li := c.data[i*c.stride:]
		for j := 0; j <= i; j++ {
			lj := c.data[j*c.stride:]
			var s float64
			for k := 0; k <= j; k++ {
				s += li[k] * lj[k]
			}
			out.Set(i, j, s)
			out.Set(j, i, s)
		}
	}
	return out
}

// LogDet returns log det(A) = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.at(i, i))
	}
	return 2 * s
}

// SolveVec solves A x = b in place of a fresh vector, using the factorization.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	n := c.n
	if len(b) != n {
		return nil, fmt.Errorf("%w: solve %d with rhs %d", ErrShape, n, len(b))
	}
	x := make([]float64, n)
	copy(x, b)
	if err := c.SolveVecInPlace(x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveVecInPlace solves A x = b, overwriting b with the solution. It
// performs no allocation; the zero-allocation prediction path in internal/ml
// depends on that.
func (c *Cholesky) SolveVecInPlace(b []float64) error {
	n := c.n
	if len(b) != n {
		return fmt.Errorf("%w: solve %d with rhs %d", ErrShape, n, len(b))
	}
	// Forward substitution: L y = b.
	for i := 0; i < n; i++ {
		row := c.data[i*c.stride : i*c.stride+i+1]
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * b[k]
		}
		b[i] = s / row[i]
	}
	// Back substitution: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= c.at(k, i) * b[k]
		}
		b[i] = s / c.at(i, i)
	}
	return nil
}

// SolveTriLower solves L y = b for lower-triangular L.
func (c *Cholesky) SolveTriLower(b []float64) ([]float64, error) {
	n := c.n
	if len(b) != n {
		return nil, fmt.Errorf("%w: solve %d with rhs %d", ErrShape, n, len(b))
	}
	y := make([]float64, n)
	copy(y, b)
	if err := c.SolveTriLowerInPlace(y); err != nil {
		return nil, err
	}
	return y, nil
}

// SolveTriLowerInPlace solves L y = b, overwriting b with y, without
// allocating.
func (c *Cholesky) SolveTriLowerInPlace(b []float64) error {
	n := c.n
	if len(b) != n {
		return fmt.Errorf("%w: solve %d with rhs %d", ErrShape, n, len(b))
	}
	for i := 0; i < n; i++ {
		row := c.data[i*c.stride : i*c.stride+i+1]
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * b[k]
		}
		b[i] = s / row[i]
	}
	return nil
}

// grow ensures the backing block has room for order want, re-laying the
// factor at a doubled stride when the current capacity is exhausted.
func (c *Cholesky) grow(want int) {
	if want <= c.stride {
		return
	}
	stride := c.stride * 2
	if stride < want {
		stride = want
	}
	if stride < 4 {
		stride = 4
	}
	data := make([]float64, stride*stride)
	for i := 0; i < c.n; i++ {
		copy(data[i*stride:i*stride+i+1], c.data[i*c.stride:i*c.stride+i+1])
	}
	c.data, c.stride = data, stride
}

// ensureScratch returns the reusable workspace, at least n long.
func (c *Cholesky) ensureScratch(n int) []float64 {
	if cap(c.scratch) < n {
		c.scratch = make([]float64, n)
	}
	c.scratch = c.scratch[:n]
	return c.scratch
}

// AppendRow grows the factorization from order n to n+1, conditioning on one
// new observation: the represented matrix becomes
//
//	[ A    a12 ]
//	[ a12ᵀ a22 ]
//
// in O(n²) time via one triangular solve (the new off-diagonal row solves
// L l = a12 and the new pivot is √(a22 − lᵀl)). It returns ErrShape when
// len(a12) ≠ n and a *NotPDError when the bordered matrix is not positive
// definite; on error the factor is unchanged.
func (c *Cholesky) AppendRow(a12 []float64, a22 float64) error {
	n := c.n
	if len(a12) != n {
		return fmt.Errorf("%w: append row of %d to order %d", ErrShape, len(a12), n)
	}
	c.grow(n + 1)
	l := c.data[n*c.stride : n*c.stride+n+1]
	d := a22
	for i := 0; i < n; i++ {
		row := c.data[i*c.stride : i*c.stride+i+1]
		s := a12[i]
		for k := 0; k < i; k++ {
			s -= row[k] * l[k]
		}
		li := s / row[i]
		l[i] = li
		d -= li * li
	}
	if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return &NotPDError{Op: "append", Pivot: n, Value: d}
	}
	l[n] = math.Sqrt(d)
	c.n = n + 1
	return nil
}

// Shrink drops the last row and column of the factor, inverting AppendRow:
// the factor of a leading principal submatrix is the leading block of L, so
// this is O(1). Shrinking an empty factor is a no-op.
func (c *Cholesky) Shrink() {
	if c.n > 0 {
		c.n--
	}
}

// Update applies the rank-1 update A ← A + x xᵀ to the factorization in
// O(n²) (LINPACK dchud via Givens rotations). x is not modified. A rank-1
// update of a positive definite matrix stays positive definite, so Update
// fails only on non-finite input, returning a *NotPDError with the factor
// restored.
func (c *Cholesky) Update(x []float64) error {
	n := c.n
	if len(x) != n {
		return fmt.Errorf("%w: update of order %d with vector %d", ErrShape, n, len(x))
	}
	c.snapshot()
	w := c.ensureScratch(n)
	copy(w, x)
	for k := 0; k < n; k++ {
		lkk := c.at(k, k)
		r := math.Hypot(lkk, w[k])
		if !(r > 0) || math.IsInf(r, 0) || math.IsNaN(r) {
			c.restore(n)
			return &NotPDError{Op: "update", Pivot: k, Value: r}
		}
		cth, sth := r/lkk, w[k]/lkk
		c.data[k*c.stride+k] = r
		for i := k + 1; i < n; i++ {
			v := (c.data[i*c.stride+k] + sth*w[i]) / cth
			w[i] = cth*w[i] - sth*v
			c.data[i*c.stride+k] = v
		}
	}
	// Overflow on extreme (finite) inputs can contaminate trailing columns
	// after the last pivot check; verify and roll back rather than keep a
	// poisoned factor.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if v := c.at(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
				c.restore(n)
				return &NotPDError{Op: "update", Pivot: i, Value: v}
			}
		}
	}
	return nil
}

// Downdate applies the rank-1 downdate A ← A − x xᵀ in O(n²). x is not
// modified. If the downdated matrix is not positive definite to working
// precision the factor is left exactly as it was and a *NotPDError
// identifies the failing pivot.
func (c *Cholesky) Downdate(x []float64) error {
	n := c.n
	if len(x) != n {
		return fmt.Errorf("%w: downdate of order %d with vector %d", ErrShape, n, len(x))
	}
	c.snapshot()
	w := c.ensureScratch(n)
	copy(w, x)
	for k := 0; k < n; k++ {
		lkk := c.at(k, k)
		d := lkk*lkk - w[k]*w[k]
		if d <= 0 || math.IsNaN(d) {
			c.restore(n)
			return &NotPDError{Op: "downdate", Pivot: k, Value: d}
		}
		r := math.Sqrt(d)
		cth, sth := r/lkk, w[k]/lkk
		c.data[k*c.stride+k] = r
		for i := k + 1; i < n; i++ {
			v := (c.data[i*c.stride+k] - sth*w[i]) / cth
			w[i] = cth*w[i] - sth*v
			c.data[i*c.stride+k] = v
		}
	}
	// A successful downdate can still have contaminated later columns with
	// rounding-induced non-finite values on adversarial input; verify.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if v := c.at(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
				c.restore(n)
				return &NotPDError{Op: "downdate", Pivot: i, Value: v}
			}
		}
	}
	return nil
}

// snapshot saves the leading n columns of the factor so a failed rank-1
// operation can restore them. The buffer is reused across calls.
func (c *Cholesky) snapshot() {
	need := c.n * c.stride
	if cap(c.backup) < need {
		c.backup = make([]float64, need)
	}
	c.backup = c.backup[:need]
	copy(c.backup, c.data[:need])
}

// restore copies the first upTo rows back from the snapshot; failed rank-1
// operations restore every row they may have touched.
func (c *Cholesky) restore(upTo int) {
	if upTo > c.n {
		upTo = c.n
	}
	n := upTo * c.stride
	if n > len(c.backup) {
		n = len(c.backup)
	}
	copy(c.data[:n], c.backup[:n])
}

// SolveRidge solves (XᵀX + λI) β = Xᵀy, the ridge-regression normal
// equations. λ must be ≥ 0; with λ = 0 this is ordinary least squares via the
// normal equations, suitable for the small, well-conditioned systems used by
// Rockhopper's trend regressions. For rank-deficient systems a small ridge is
// added automatically, growing geometrically until the factorization
// succeeds.
func SolveRidge(x *Dense, y []float64, lambda float64) ([]float64, error) {
	if x.rows != len(y) {
		return nil, fmt.Errorf("%w: design %dx%d, response %d", ErrShape, x.rows, x.cols, len(y))
	}
	g := AtA(x)
	rhs, err := AtVec(x, y)
	if err != nil {
		return nil, err
	}
	if lambda > 0 {
		AddDiag(g, lambda)
	}
	// Retry with growing jitter if not SPD (collinear features are common in
	// small tuning windows where a config dimension barely moves).
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		work := g
		if jitter > 0 {
			work = g.Clone()
			AddDiag(work, jitter)
		}
		ch, err := NewCholesky(work)
		if err == nil {
			return ch.SolveVec(rhs)
		}
		if jitter == 0 {
			jitter = 1e-10 * (1 + traceAbs(g))
		} else {
			jitter *= 100
		}
	}
	return nil, ErrSingular
}

func traceAbs(m *Dense) float64 {
	var s float64
	for i := 0; i < m.rows; i++ {
		s += math.Abs(m.At(i, i))
	}
	return s
}

// LeastSquares solves min ‖Xβ − y‖₂ by QR factorization with Householder
// reflections. X must have at least as many rows as columns.
func LeastSquares(x *Dense, y []float64) ([]float64, error) {
	m, n := x.rows, x.cols
	if m < n {
		return nil, fmt.Errorf("%w: underdetermined %dx%d", ErrShape, m, n)
	}
	if m != len(y) {
		return nil, fmt.Errorf("%w: design %dx%d, response %d", ErrShape, m, n, len(y))
	}
	a := x.Clone()
	b := make([]float64, m)
	copy(b, y)
	// Householder QR, applying reflectors to b as we go.
	for k := 0; k < n; k++ {
		// Compute the norm of column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			v := a.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-300 {
			return nil, ErrSingular
		}
		alpha := -math.Copysign(norm, a.At(k, k))
		// v = column − alpha*e_k, stored in the column itself.
		akk := a.At(k, k) - alpha
		a.Set(k, k, akk)
		vnorm2 := 0.0
		for i := k; i < m; i++ {
			v := a.At(i, k)
			vnorm2 += v * v
		}
		if vnorm2 < 1e-300 {
			return nil, ErrSingular
		}
		// Apply H = I − 2 v vᵀ / ‖v‖² to remaining columns and to b.
		for j := k + 1; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += a.At(i, k) * a.At(i, j)
			}
			f := 2 * dot / vnorm2
			for i := k; i < m; i++ {
				a.Set(i, j, a.At(i, j)-f*a.At(i, k))
			}
		}
		var dotb float64
		for i := k; i < m; i++ {
			dotb += a.At(i, k) * b[i]
		}
		fb := 2 * dotb / vnorm2
		for i := k; i < m; i++ {
			b[i] -= fb * a.At(i, k)
		}
		// Store R's diagonal entry; zero below-diagonal is implicit.
		a.Set(k, k, alpha)
	}
	// Back-substitute R β = b[:n].
	beta := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * beta[j]
		}
		d := a.At(i, i)
		if math.Abs(d) < 1e-300 {
			return nil, ErrSingular
		}
		beta[i] = s / d
	}
	return beta, nil
}
