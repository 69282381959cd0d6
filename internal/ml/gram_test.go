package ml

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/mat"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/testutil"
)

// synthData draws n points of synthPoint.
func synthData(rng *stats.RNG, n, dim int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i], y[i] = synthPoint(rng, dim)
	}
	return x, y
}

// TestKernelRidgeFitMatchesReference pins the fit to the arithmetic it had
// before the Gram fill and the factorization were blocked and fanned out: a
// full symmetric Gram matrix filled entry by entry, the ridge added to its
// diagonal, a copying factorization. The dual weights must be the same bits
// on both sides of the fan-out crossover.
func TestKernelRidgeFitMatchesReference(t *testing.T) {
	for _, n := range []int{5, gramFanOutMin - 1, gramFanOutMin + 44} {
		x, y := synthData(stats.NewRNG(uint64(n)), n, 4)
		kr := NewKernelRidge()
		kr.Alpha = 0.3
		if err := kr.Fit(x, y); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rows := kr.scaler.TransformAll(x)
		gram := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := kr.Kernel.Eval(rows[i], rows[j])
				gram.Set(i, j, v)
				gram.Set(j, i, v)
			}
		}
		mat.AddDiag(gram, kr.Alpha+1e-10)
		ch, err := mat.NewCholesky(gram)
		if err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		centred := make([]float64, n)
		for i, v := range y {
			centred[i] = v - kr.yMean
		}
		want, err := ch.SolveVec(centred)
		if err != nil {
			t.Fatalf("n=%d: reference solve: %v", n, err)
		}
		for i := range want {
			if math.Float64bits(kr.dual[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: dual[%d] = %g, reference %g", n, i, kr.dual[i], want[i])
			}
		}
	}
}

// TestFitIdenticalAcrossProcs is what lets a fleet's nodes, or one node
// before and after a resize, train byte-identical models from the same
// history: the serialized fit does not depend on GOMAXPROCS.
func TestFitIdenticalAcrossProcs(t *testing.T) {
	x, y := synthData(stats.NewRNG(300), 300, 5)
	var blobs [][]byte
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			kr := NewKernelRidge()
			kr.Alpha = 0.3
			if err := kr.Fit(x, y); err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			blob, err := Marshal(kr)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: marshal: %v", procs, err)
			}
			blobs = append(blobs, blob)
		}()
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("KernelRidge fitted under GOMAXPROCS 1 and 4 serializes to different bytes")
	}
}

// TestGPObserveAfterFannedOutFit grows a GP whose batch fit took the
// fanned-out, in-place path (the factor's stride is then exactly n, so the
// first Observe re-lays it) and checks it against a refit on every point.
func TestGPObserveAfterFannedOutFit(t *testing.T) {
	t.Parallel()
	const dim, base, extra = 4, gramFanOutMin + 44, 3
	rng := stats.NewRNG(77)
	x, y := synthData(rng, base+extra, dim)
	inc, batch := NewGP(), NewGP()
	inc.Standardize, batch.Standardize = false, false
	if err := inc.Fit(x[:base], y[:base]); err != nil {
		t.Fatal(err)
	}
	for i := base; i < base+extra; i++ {
		if err := inc.Observe(x[i], y[i]); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	if err := batch.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 20; p++ {
		q, _ := synthPoint(rng, dim)
		bm, bv := batch.PredictVar(q)
		im, iv := inc.PredictVar(q)
		if !closeWithin(bm, im, gpEquivTol) || !closeWithin(bv, iv, gpEquivTol) {
			t.Fatalf("probe %d: batch (%g, %g) vs incremental (%g, %g)", p, bm, bv, im, iv)
		}
	}
}

var benchFit *KernelRidge

// BenchmarkKernelRidgeFit times the server-side retrain's fit per history
// length, on both sides of gramFanOutMin and of mat's fan-out crossover, so
// the constants can be re-measured: run with -cpu 1,2 and compare.
func BenchmarkKernelRidgeFit(b *testing.B) {
	for _, n := range []int{64, 160, 256, 512, 768} {
		x, y := synthData(stats.NewRNG(uint64(n)), n, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kr := NewKernelRidge()
				kr.Alpha = 0.3
				if err := kr.Fit(x, y); err != nil {
					b.Fatal(err)
				}
				benchFit = kr
			}
		})
	}
}

// TestKernelRidgeFitThroughPoolIsBitIdentical fits n = 300, 40 and 300 in
// turn, each on the Gram buffer the fit before it left in the pool — the
// first on one poisoned with NaN — and requires every model blob to equal
// the blob of the same fit made on a fresh buffer: a reused buffer's stale
// upper triangle is never read.
func TestKernelRidgeFitThroughPoolIsBitIdentical(t *testing.T) {
	fit := func(n int) []byte {
		t.Helper()
		x, y := synthData(stats.NewRNG(uint64(n)), n, 4)
		kr := NewKernelRidge()
		kr.Alpha = 0.3
		if err := kr.Fit(x, y); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		blob, err := Marshal(kr)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	sizes := []int{300, 40, 300}
	fresh := map[int][]byte{}
	for _, n := range sizes {
		for gramPool.Get() != nil { // drain: this fit allocates its own buffer
		}
		fresh[n] = fit(n)
	}
	poison := make([]float64, 300*300)
	for i := range poison {
		poison[i] = math.NaN()
	}
	gramPool.Put(&poison)
	for i, n := range sizes {
		if got := fit(n); !bytes.Equal(got, fresh[n]) {
			t.Fatalf("fit %d (n=%d) through the pool differs from the fit on a fresh buffer", i, n)
		}
	}
}

// TestKernelRidgeFitReusesGram pins the pool's effect: once warm, a fit at
// n = 256 allocates under a quarter of its n²·8-byte Gram matrix. Not
// parallel: TotalAlloc is process-wide; collection is off while measuring
// so the pool is not emptied under the loop.
func TestKernelRidgeFitReusesGram(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	const n, fits = 256, 10
	x, y := synthData(stats.NewRNG(256), n, 4)
	kr := NewKernelRidge()
	if err := kr.Fit(x, y); err != nil { // warm the pool
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < fits; i++ {
		if err := kr.Fit(x, y); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perFit := float64(after.TotalAlloc-before.TotalAlloc) / fits
	t.Logf("KernelRidge.Fit at n=%d: %.0f B allocated per fit (Gram matrix %d B)", n, perFit, n*n*8)
	if perFit > n*n*8/4 {
		t.Fatalf("a warm fit allocates %.0f B; budget is a quarter of the %d-byte Gram matrix", perFit, n*n*8)
	}
}
