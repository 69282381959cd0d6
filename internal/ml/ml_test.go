package ml

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/rockhopper-db/rockhopper/internal/stats"
)

func genLinearData(r *stats.RNG, n int, coef []float64, intercept, noise float64) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, len(coef))
		v := intercept
		for j := range coef {
			row[j] = r.Uniform(-3, 3)
			v += coef[j] * row[j]
		}
		x[i] = row
		y[i] = v + r.Normal(0, noise)
	}
	return x, y
}

func TestLinearRecoversCoefficients(t *testing.T) {
	r := stats.NewRNG(1)
	truth := []float64{2, -1.5, 0.7}
	x, y := genLinearData(r, 200, truth, 4, 0)
	m := NewLinear(0)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		if math.Abs(m.RawSlope(j)-truth[j]) > 1e-6 {
			t.Fatalf("slope %d = %g; want %g", j, m.RawSlope(j), truth[j])
		}
	}
	pred := m.Predict([]float64{1, 1, 1})
	want := 4 + 2 - 1.5 + 0.7
	if math.Abs(pred-want) > 1e-6 {
		t.Fatalf("predict = %g; want %g", pred, want)
	}
}

func TestLinearSlopeSignUnderNoise(t *testing.T) {
	// FIND_GRADIENT only needs the sign; with n=30 and moderate noise the
	// sign must be stable.
	r := stats.NewRNG(2)
	for trial := 0; trial < 20; trial++ {
		x, y := genLinearData(r.Split(), 30, []float64{3, -2}, 10, 1)
		m := NewLinear(1e-3)
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if m.RawSlope(0) <= 0 || m.RawSlope(1) >= 0 {
			t.Fatalf("trial %d: slope signs wrong: %g %g", trial, m.RawSlope(0), m.RawSlope(1))
		}
	}
}

func TestLinearUnfittedPredictNaN(t *testing.T) {
	m := NewLinear(0)
	if !math.IsNaN(m.Predict([]float64{1})) {
		t.Fatal("unfitted Predict should be NaN")
	}
}

func TestLinearRejectsBadInput(t *testing.T) {
	m := NewLinear(0)
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("empty fit should error")
	}
	if err := m.Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged fit should error")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestFeatureExpander(t *testing.T) {
	e := FeatureExpander{Interactions: true, Squares: true, Bias: true}
	out := e.Expand([]float64{2, 3})
	// bias, x1, x2, x1², x2², x1·x2
	want := []float64{1, 2, 3, 4, 9, 6}
	if len(out) != len(want) {
		t.Fatalf("expanded width = %d; want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("expand = %v; want %v", out, want)
		}
	}
	id := FeatureExpander{}
	if got := id.Expand([]float64{5}); len(got) != 1 || got[0] != 5 {
		t.Fatal("identity expander wrong")
	}
}

func TestScaler(t *testing.T) {
	x := [][]float64{{0, 100}, {2, 100}, {4, 100}}
	s, err := FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	out := s.TransformAll(x)
	col := []float64{out[0][0], out[1][0], out[2][0]}
	if math.Abs(stats.Mean(col)) > 1e-12 {
		t.Fatalf("scaled mean = %g", stats.Mean(col))
	}
	// Constant column must not blow up.
	if out[0][1] != 0 || math.IsNaN(out[0][1]) {
		t.Fatalf("constant column mishandled: %v", out[0])
	}
}

func TestKernelRidgeFitsSmoothFunction(t *testing.T) {
	r := stats.NewRNG(3)
	n := 120
	x := make([][]float64, n)
	y := make([]float64, n)
	f := func(a, b float64) float64 { return math.Sin(a) + 0.5*b*b }
	for i := 0; i < n; i++ {
		a, b := r.Uniform(-2, 2), r.Uniform(-2, 2)
		x[i] = []float64{a, b}
		y[i] = f(a, b) + r.Normal(0, 0.05)
	}
	m := NewKernelRidge()
	m.Alpha = 0.05
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var preds, truths []float64
	for i := 0; i < 50; i++ {
		a, b := r.Uniform(-1.5, 1.5), r.Uniform(-1.5, 1.5)
		preds = append(preds, m.Predict([]float64{a, b}))
		truths = append(truths, f(a, b))
	}
	if r2 := R2(preds, truths); r2 < 0.9 {
		t.Fatalf("kernel ridge R² = %g; want > 0.9", r2)
	}
}

func TestGPInterpolatesAndQuantifiesUncertainty(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 1, 4, 9}
	g := NewGP()
	g.Noise = 1e-6
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Near a training point: prediction close, variance small.
	m0, v0 := g.PredictVar([]float64{1})
	if math.Abs(m0-1) > 0.05 {
		t.Fatalf("GP mean at training point = %g; want ≈1", m0)
	}
	// Far from data: variance larger.
	_, vFar := g.PredictVar([]float64{10})
	if vFar <= v0 {
		t.Fatalf("GP variance should grow away from data: near=%g far=%g", v0, vFar)
	}
}

// TestGPVarianceGrowsWithDistance: with one observation, the posterior
// variance rises strictly with distance from it (the kernel is stationary
// and decreasing), which is what lets the acquisition prefer unexplored
// configurations.
func TestGPVarianceGrowsWithDistance(t *testing.T) {
	g := NewGP()
	if err := g.Fit([][]float64{{0}}, []float64{3}); err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, d := range []float64{0, 0.25, 0.5, 1, 2, 4} {
		_, v := g.PredictVar([]float64{d})
		if v <= prev {
			t.Fatalf("variance at distance %g = %g, not above %g nearer in", d, v, prev)
		}
		prev = v
	}
}

func TestGPExpectedImprovement(t *testing.T) {
	x := [][]float64{{0}, {2}}
	y := []float64{5, 1}
	g := NewGP()
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	best := 1.0
	// EI must be non-negative everywhere.
	for _, xv := range []float64{-1, 0, 1, 2, 3} {
		if ei := g.ExpectedImprovement([]float64{xv}, best, 0.01); ei < 0 {
			t.Fatalf("EI(%g) = %g < 0", xv, ei)
		}
	}
	// EI at the known-bad point should be smaller than at an uncertain
	// midpoint whose posterior mean is closer to the incumbent.
	eiBad := g.ExpectedImprovement([]float64{0}, best, 0.01)
	eiMid := g.ExpectedImprovement([]float64{1.5}, best, 0.01)
	if eiMid <= eiBad {
		t.Fatalf("EI should favour promising uncertain points: bad=%g mid=%g", eiBad, eiMid)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := stats.NewRNG(4)
	x, y := genLinearData(r, 50, []float64{1, -2}, 3, 0.1)

	models := []Regressor{NewLinear(0.01), NewKernelRidge()}
	for _, m := range models {
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		blob, err := Marshal(m)
		if err != nil {
			t.Fatalf("%T marshal: %v", m, err)
		}
		back, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%T unmarshal: %v", m, err)
		}
		probe := []float64{0.5, -0.5}
		a, b := m.Predict(probe), back.Predict(probe)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("%T round trip prediction drift: %g vs %g", m, a, b)
		}
	}
}

func TestMarshalRejectsGP(t *testing.T) {
	if _, err := Marshal(NewGP()); err == nil {
		t.Fatal("GP marshal should be rejected")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not a model")); err == nil {
		t.Fatal("garbage unmarshal should error")
	}
}

func TestMetrics(t *testing.T) {
	if !math.IsNaN(MSE(nil, nil)) {
		t.Fatal("MSE of empty should be NaN")
	}
	if MSE([]float64{1, 2}, []float64{1, 4}) != 2 {
		t.Fatal("MSE wrong")
	}
	if r2 := R2([]float64{1, 2, 3}, []float64{1, 2, 3}); r2 != 1 {
		t.Fatalf("perfect R² = %g", r2)
	}
}

// Property: ridge predictions are finite for any non-degenerate data.
func TestPropLinearFinite(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 5 + r.Intn(30)
		p := 1 + r.Intn(4)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			row := make([]float64, p)
			for j := range row {
				row[j] = r.Normal(0, 5)
			}
			x[i] = row
			y[i] = r.Normal(0, 5)
		}
		m := NewLinear(1e-6)
		if err := m.Fit(x, y); err != nil {
			return true // singular draw is acceptable to reject
		}
		probe := make([]float64, p)
		for j := range probe {
			probe[j] = r.Normal(0, 5)
		}
		v := m.Predict(probe)
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: GP posterior variance is within [0, kernel variance + eps].
func TestPropGPVarianceBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 3 + r.Intn(10)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{r.Normal(0, 2)}
			y[i] = r.Normal(0, 2)
		}
		g := NewGP()
		if err := g.Fit(x, y); err != nil {
			return true
		}
		for k := 0; k < 10; k++ {
			_, v := g.PredictVar([]float64{r.Normal(0, 4)})
			if v < 0 || v > g.Kernel.Variance+1e-6 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
