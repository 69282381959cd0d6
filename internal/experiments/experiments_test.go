package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

func TestSyntheticObjective(t *testing.T) {
	obj := NewSyntheticObjective()
	opt := obj.OptimalConfig()
	if v := obj.TrueTime(opt, 1); v > obj.OptimalTime(1)*1.01 {
		t.Fatalf("objective at optimum = %g; want ≈ %g", v, obj.OptimalTime(1))
	}
	def := obj.Space.Default()
	if obj.TrueTime(def, 1) <= obj.OptimalTime(1) {
		t.Fatal("default should be suboptimal")
	}
	if obj.TrueTime(def, 2) <= obj.TrueTime(def, 1) {
		t.Fatal("objective must scale with data size")
	}
}

func TestFig01OptimaDiffer(t *testing.T) {
	rows, parts := Fig01PartitionSweep(Fig01Params{})
	if len(rows) != 4 || len(rows[0].Times) != len(parts) {
		t.Fatalf("unexpected shape: %d rows", len(rows))
	}
	bests := map[float64]bool{}
	for _, r := range rows {
		bests[r.BestP] = true
		// Interior optimum: neither extreme should be best.
		if r.BestP == parts[0] || r.BestP == parts[len(parts)-1] {
			t.Fatalf("%s best at boundary P=%g", r.QueryID, r.BestP)
		}
	}
	if len(bests) < 2 {
		t.Fatal("per-query optima should differ")
	}
	var buf bytes.Buffer
	PrintFig01(&buf, rows, parts)
	if !strings.Contains(buf.String(), "tpcds-q1") {
		t.Fatal("print output missing query rows")
	}
}

func TestFig02BaselinesStruggle(t *testing.T) {
	r := Fig02NoisyBaselines(Fig02Params{Runs: 8, Iters: 50})
	for _, alg := range []string{"bo", "flow2"} {
		b, ok := r.Bands[alg]
		if !ok || len(b.Median) != 50 {
			t.Fatalf("band missing for %s", alg)
		}
		// The Figure 2 phenomenon: under high noise the median trajectory
		// stays well above the optimum at the end of the horizon.
		final := stats.Mean(b.Median[40:])
		if final < r.Optimal*1.05 {
			t.Fatalf("%s converged suspiciously well under high noise: %g vs optimal %g", alg, final, r.Optimal)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "flow2") {
		t.Fatal("print output incomplete")
	}
}

func TestFig03ManualImproves(t *testing.T) {
	r := Fig03ManualVsBO(Fig03Params{Queries: []int{2}, Users: 15, Iters: 25})
	if len(r.Manual) != 1 || len(r.BO) != 1 {
		t.Fatalf("unexpected result shape")
	}
	m := r.Manual[0]
	if stats.Mean(m[20:]) >= m[0] {
		t.Fatalf("experts should improve on average: start=%g end=%g", m[0], stats.Mean(m[20:]))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "manual") {
		t.Fatal("print output incomplete")
	}
}

func TestFig08NoiseOnlySlowsDown(t *testing.T) {
	rows := Fig08SyntheticFunction(Fig08Params{Points: 21})
	if len(rows) != 21 {
		t.Fatalf("points = %d", len(rows))
	}
	minIdx := 0
	for i, r := range rows {
		if r.NoisyHigh < r.True || r.NoisyLow < r.True {
			t.Fatal("noise must only slow down")
		}
		if r.True < rows[minIdx].True {
			minIdx = i
		}
	}
	// The true curve is convex with an interior minimum near Opt[0]=0.35.
	if minIdx == 0 || minIdx == len(rows)-1 {
		t.Fatal("true curve should have an interior minimum")
	}
	var buf bytes.Buffer
	PrintFig08(&buf, rows)
	if !strings.Contains(buf.String(), "high-noise") {
		t.Fatal("print output incomplete")
	}
}

func TestFig09LevelOrdering(t *testing.T) {
	r := Fig09SurrogateLevels(Fig09Params{Levels: []int{9, 5, 1}, Runs: 8, Iters: 60})
	tail := func(level int) float64 {
		b := r.Bands[level]
		return stats.Mean(b.Median[50:])
	}
	l1, l5, l9 := tail(1), tail(5), tail(9)
	if !(l1 < l5 && l5 < l9) {
		t.Fatalf("level ordering violated: L1=%g L5=%g L9=%g", l1, l5, l9)
	}
	// Level 1 should approach the optimum.
	if l1 > r.Optimal*1.15 {
		t.Fatalf("Level 1 should nearly converge: %g vs optimal %g", l1, r.Optimal)
	}
}

func TestFig10CLConverges(t *testing.T) {
	r := Fig10CLSVR(Fig10Params{Runs: 6, Iters: 80})
	start := r.Band.Median[0]
	final := stats.Mean(r.Band.Median[65:])
	if final >= start {
		t.Fatalf("CL+SVR should improve: start=%g final=%g", start, final)
	}
	gFinal := stats.Mean(r.GapBand.Median[65:])
	if gFinal >= r.GapBand.Median[0] {
		t.Fatalf("optimality gap should shrink: %g vs %g", gFinal, r.GapBand.Median[0])
	}
}

func TestFig11DynamicConverges(t *testing.T) {
	r := Fig11DynamicWorkloads(Fig11Params{Runs: 5, Iters: 80})
	for _, shape := range []string{"linear", "periodic"} {
		b := r.Normed[shape]
		if len(b.Median) != 80 {
			t.Fatalf("%s band missing", shape)
		}
		final := stats.Mean(b.Median[65:])
		if final >= b.Median[0] {
			t.Fatalf("%s: normed performance should improve: start=%g final=%g", shape, b.Median[0], final)
		}
	}
}

func TestFig12SpeedupsMonotone(t *testing.T) {
	r := Fig12TransferLearning(Fig12Params{
		TargetQueries: []int{1, 2, 3}, Iters: 15, FlightRuns: 30, SampleSizes: []int{50, 150},
	})
	for n, sp := range r.Speedup {
		if len(sp) != 15 {
			t.Fatalf("n=%d: %d iters", n, len(sp))
		}
		prev := 0.0
		for i, v := range sp {
			if v < prev-1e-12 {
				t.Fatalf("n=%d: best-so-far speedup decreased at %d", n, i)
			}
			if v < 1-1e-12 {
				t.Fatalf("n=%d: speedup below 1 at %d (%g)", n, i, v)
			}
			prev = v
		}
		if sp[len(sp)-1] > r.BestSpeedup+1e-9 {
			t.Fatalf("n=%d: speedup exceeds oracle", n)
		}
	}
}

func TestFig13CLBeatsBOFromPoorStart(t *testing.T) {
	r := Fig13CLvsBO(Fig13Params{Queries: []int{1, 2, 3}, Iters: 40})
	tail := func(xs []float64) float64 { return stats.Mean(xs[32:]) }
	if tail(r.CL) >= r.StartotalMs {
		t.Fatalf("CL should improve from poor start: %g vs %g", tail(r.CL), r.StartotalMs)
	}
	if tail(r.CL) >= tail(r.CBO) {
		t.Fatalf("CL should out-converge BO here: CL=%g BO=%g", tail(r.CL), tail(r.CBO))
	}
}

func TestEmbeddingAblationRuns(t *testing.T) {
	r := EmbeddingAblation(EmbeddingAblationParams{
		TargetQueries: []int{1, 2, 3, 5}, Iters: 12, FlightRuns: 20,
	})
	if len(r.Plain) != 12 || len(r.Virtual) != 12 {
		t.Fatal("trajectory lengths wrong")
	}
	for i := range r.Plain {
		if r.Plain[i] <= 0 || r.Virtual[i] <= 0 {
			t.Fatal("non-positive totals")
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "virtual") {
		t.Fatal("print output incomplete")
	}
}

func TestFig14CountersConsistent(t *testing.T) {
	r := Fig14TPCH(Fig14Params{Iters: 20, FlightRuns: 10, DSQueries: []int{1, 2}})
	if len(r.Rows) != workloads.TPCH.QueryCount() {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	g10, g15, reg := 0, 0, 0
	for _, row := range r.Rows {
		if row.ImprovementPct > 15 {
			g15++
			g10++
		} else if row.ImprovementPct > 10 {
			g10++
		} else if row.ImprovementPct < 0 {
			reg++
		}
	}
	if g10 != r.GainsOver10 || g15 != r.GainsOver15 || reg != r.Regressions {
		t.Fatalf("counters inconsistent: %d/%d/%d vs %d/%d/%d",
			g10, g15, reg, r.GainsOver10, r.GainsOver15, r.Regressions)
	}
	for _, v := range r.TotalPerIter {
		if v <= 0 {
			t.Fatal("non-positive total")
		}
	}
}

func TestFleetStudyAccounting(t *testing.T) {
	r := FleetStudy(FleetParams{Signatures: 12, Iters: 40, Guardrail: true})
	if len(r.ImprovementsPct) != 12 {
		t.Fatalf("improvements = %d", len(r.ImprovementsPct))
	}
	if r.Maintained+r.Disabled != 12 {
		t.Fatalf("guardrail accounting: %d + %d != 12", r.Maintained, r.Disabled)
	}
	if r.MaxImprovementPct < r.MinImprovementPct {
		t.Fatal("bounds inverted")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "guardrail") {
		t.Fatal("print output incomplete")
	}
}

func TestFleetImprovesOnAverage(t *testing.T) {
	r := FleetStudy(FleetParams{Signatures: 15, Iters: 80, BaseNoise: noise.Model{FL: 0.2, SL: 0.2}})
	if r.TotalImprovementPct <= 0 {
		t.Fatalf("fleet should improve in aggregate: %g%%", r.TotalImprovementPct)
	}
}

func TestArchRoundTrip(t *testing.T) {
	r := ArchRoundTrip(ArchParams{Iters: 20})
	if !r.ModelTrained {
		t.Fatal("backend model should have trained")
	}
	if r.EventFiles != 20 {
		t.Fatalf("event files = %d; want 20", r.EventFiles)
	}
	if r.AppCacheRuns != 1 {
		t.Fatalf("app cache runs = %d", r.AppCacheRuns)
	}
	if r.FinalMs <= 0 || r.DefaultMs <= 0 {
		t.Fatal("degenerate times")
	}
}

// TestArchRoundTripDeterministic: EXPERIMENTS.md promises every run is
// deterministic given the seed. The round trip crosses HTTP and an
// asynchronous retrain queue, so each proposal must see the model its
// previous post queued, not whichever model the queue happened to finish.
func TestArchRoundTripDeterministic(t *testing.T) {
	a := ArchRoundTrip(ArchParams{Iters: 20})
	b := ArchRoundTrip(ArchParams{Iters: 20})
	if math.Float64bits(a.FinalMs) != math.Float64bits(b.FinalMs) {
		t.Fatalf("same seed, different results: final %v ms, then %v ms", a.FinalMs, b.FinalMs)
	}
	if a.ImprovementPct <= 0 {
		t.Fatalf("round trip did not improve on the default: %.1f%%", a.ImprovementPct)
	}
}

func TestAppLevelJointImproves(t *testing.T) {
	r := AppLevelJoint(AppLevelParams{})
	if r.JointMs > r.StartMs {
		t.Fatalf("joint optimization regressed: %g vs %g", r.JointMs, r.StartMs)
	}
}

func TestAblationsWindowClaim(t *testing.T) {
	r := Ablations(AblationParams{Runs: 5, Iters: 70, Ns: []int{2, 10}, Alphas: []float64{0.08}})
	var n2, n10 float64
	for _, row := range r.WindowN {
		switch row.Label {
		case "N=2":
			n2 = row.FinalMs
		case "N=10":
			n10 = row.FinalMs
		}
	}
	// The paper's de-noising claim: tiny windows (hill-climbing style)
	// cannot cope with heavy noise.
	if n10 >= n2 {
		t.Fatalf("N=10 should beat N=2 under high noise: %g vs %g", n10, n2)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "FIND_BEST") {
		t.Fatal("print output incomplete")
	}
}

func TestRunLoopRecords(t *testing.T) {
	obj := NewSyntheticObjective()
	r := stats.NewRNG(1)
	tn := &dummyTuner{cfg: obj.Space.Default()}
	recs := RunLoop(obj.Space, obj, tn, 10, noise.Low, workloads.Linear{Base: 1, Slope: 0.1}, r)
	if len(recs) != 10 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, rec := range recs {
		if rec.Iteration != i || rec.Observed < rec.TrueTime {
			t.Fatalf("record %d malformed: %+v", i, rec)
		}
	}
	if recs[9].Scale <= recs[0].Scale {
		t.Fatal("size process ignored")
	}
}

type dummyTuner struct {
	cfg sparksim.Config
}

func (d *dummyTuner) Name() string                         { return "dummy" }
func (d *dummyTuner) Propose(int, float64) sparksim.Config { return d.cfg.Clone() }
func (d *dummyTuner) Observe(sparksim.Observation)         {}

var _ tuners.Tuner = (*dummyTuner)(nil)

func TestGuardrailAblationTruncatesTail(t *testing.T) {
	r := GuardrailAblation(GuardrailAblationParams{Signatures: 12, Iters: 50, Thresholds: []float64{-1, 0.01}})
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	off, on := r.Rows[0], r.Rows[1]
	if off.Disabled != 0 {
		t.Fatal("guardrail-off run cannot disable anything")
	}
	// The guarded policy's worst case must not be (meaningfully) worse than
	// the unguarded one's.
	if on.WorstPct < off.WorstPct-1 {
		t.Fatalf("guardrail should truncate the regression tail: off=%g on=%g", off.WorstPct, on.WorstPct)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Guardrail ablation") {
		t.Fatal("print output incomplete")
	}
}

func TestBaselinesTable(t *testing.T) {
	r := Baselines(BaselinesParams{Runs: 4, Iters: 60, Noises: []noise.Model{noise.None, noise.High}})
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byAlg := map[string][]float64{}
	for _, row := range r.Rows {
		if len(row.ImprovementPct) != 2 {
			t.Fatalf("%s has %d noise columns", row.Algorithm, len(row.ImprovementPct))
		}
		byAlg[row.Algorithm] = row.ImprovementPct
	}
	// Centroid Learning must remain within a safe band under high noise
	// (no catastrophic regression) — the robustness headline.
	if byAlg["centroid"][1] < -10 {
		t.Fatalf("centroid regressed badly under noise: %g%%", byAlg["centroid"][1])
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "centroid") {
		t.Fatal("print output incomplete")
	}
}

func TestCatalogStudy(t *testing.T) {
	r := CatalogStudy(CatalogParams{Queries: 4, Iters: 30})
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.DefaultMs <= 0 || row.FinalMs <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
		if row.FactTable == "" || row.FactTable == row.QueryID {
			t.Fatalf("fact table not extracted: %+v", row)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "lineitem") {
		t.Fatal("catalog output should name real tables")
	}
}

func TestAQEStudy(t *testing.T) {
	r := AQEStudy(AQEParams{Queries: []int{1, 2}, Iters: 30})
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var offSum, onSum float64
	for _, row := range r.Rows {
		offSum += row.HeadroomOffPct
		onSum += row.HeadroomOnPct
	}
	// AQE absorbs part of the static tuning value in aggregate.
	if onSum >= offSum {
		t.Fatalf("AQE should reduce aggregate headroom: off=%g on=%g", offSum, onSum)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "AQE interaction") {
		t.Fatal("print output incomplete")
	}
}
