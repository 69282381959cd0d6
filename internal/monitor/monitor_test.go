package monitor

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

func recordedDashboard(t *testing.T, n int, mutate func(i int, cfg sparksim.Config) sparksim.Config) (*Dashboard, *sparksim.Engine, *sparksim.Query) {
	t.Helper()
	e := sparksim.NewEngine(sparksim.QuerySpace())
	q := workloads.NewGenerator(5).Query(workloads.TPCDS, 2)
	d := New(e.Space, q.ID)
	r := stats.NewRNG(9)
	for i := 0; i < n; i++ {
		cfg := e.Space.Default()
		if mutate != nil {
			cfg = mutate(i, cfg)
		}
		o := e.Run(q, cfg, 1, r, noise.Low)
		o.Iteration = i
		stages, _ := e.Explain(q, cfg, 1)
		d.Record(o, stages)
	}
	return d, e, q
}

func TestRecordAndLen(t *testing.T) {
	d, _, _ := recordedDashboard(t, 7, nil)
	if d.Len() != 7 {
		t.Fatalf("len = %d", d.Len())
	}
	evs := d.Events()
	if len(evs) != 7 || evs[3].Iteration != 3 {
		t.Fatal("events copy wrong")
	}
	if evs[0].Tasks == 0 {
		t.Fatal("stage metrics not captured")
	}
}

func TestRecordCopiesConfig(t *testing.T) {
	e := sparksim.NewEngine(sparksim.QuerySpace())
	d := New(e.Space, "sig")
	cfg := e.Space.Default()
	d.Record(sparksim.Observation{Config: cfg, Time: 1, DataSize: 1}, nil)
	cfg[0] = -1
	if d.Events()[0].Config[0] == -1 {
		t.Fatal("dashboard must own config copies")
	}
}

// A dashboard's runs and stage metrics grow like tuners.History, by an
// eighth: past the first few dozen events their spare capacity stays near an
// eighth of their length, and every event keeps its place.
func TestRecordGrowsByAnEighth(t *testing.T) {
	e := sparksim.NewEngine(sparksim.QuerySpace())
	d := New(e.Space, "sig")
	stages := []sparksim.StageStat{{Tasks: 3}}
	for i := 0; i < 4096; i++ {
		d.Record(sparksim.Observation{Iteration: i, Config: e.Space.Default(), Time: 1, DataSize: 1}, stages)
		n := d.Len()
		if n >= 64 && (cap(d.runs.Obs)-n > n/4+8 || cap(d.metrics)-n > n/4+8) {
			t.Fatalf("len %d: caps %d (runs), %d (metrics) leave more than a quarter spare", n, cap(d.runs.Obs), cap(d.metrics))
		}
	}
	for i, ev := range d.Events() {
		if ev.Iteration != i || ev.Tasks != 3 {
			t.Fatalf("event %d has iteration %d and %d tasks", i, ev.Iteration, ev.Tasks)
		}
	}
}

// TestOverReadsTheRunsItIsGiven: a dashboard over another component's
// history keeps no copy of its runs. It sees every run the history records,
// and attaches stage metrics to the latest one only; runs recorded without
// a stage breakdown read zero metrics and cost the dashboard nothing.
func TestOverReadsTheRunsItIsGiven(t *testing.T) {
	e := sparksim.NewEngine(sparksim.QuerySpace())
	var h tuners.History
	d := Over(e.Space, "sig", &h)
	for i := 0; i < 6; i++ {
		h.Add(sparksim.Observation{Iteration: i, Config: e.Space.Default(), Time: float64(100 + i), DataSize: 1})
		if i == 4 {
			d.RecordStages([]sparksim.StageStat{{Tasks: 7, SpillBytes: 2}})
		} else {
			d.RecordStages(nil)
		}
	}
	if d.Len() != 6 || h.Len() != 6 {
		t.Fatalf("dashboard len %d, history len %d, want 6 and 6", d.Len(), h.Len())
	}
	if len(d.metrics) != 5 {
		t.Fatalf("metrics hold %d runs, want 5 (through the last run with stages)", len(d.metrics))
	}
	for i, ev := range d.Events() {
		want := Metrics{}
		if i == 4 {
			want = Metrics{Tasks: 7, SpillBytes: 2}
		}
		if ev.Iteration != i || ev.ObservedMs != float64(100+i) || ev.Metrics != want {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	evs := d.Events()
	evs[0].Config[0] = -1
	if h.Obs[0].Config[0] == -1 {
		t.Fatal("Events must not hand out the history's configurations")
	}
}

func TestPerformanceTrendDirections(t *testing.T) {
	e := sparksim.NewEngine(sparksim.QuerySpace())
	mk := func(times []float64) *Dashboard {
		d := New(e.Space, "sig")
		for i, tm := range times {
			d.Record(sparksim.Observation{
				Config: e.Space.Default(), Time: tm, DataSize: 1e9, Iteration: i,
			}, nil)
		}
		return d
	}
	up := mk([]float64{100, 110, 120, 130, 140, 150, 160, 170})
	if s, ok := up.PerformanceTrend(); !ok || s <= 0 {
		t.Fatalf("rising series should trend positive: %g %v", s, ok)
	}
	down := mk([]float64{170, 160, 150, 140, 130, 120, 110, 100})
	if s, ok := down.PerformanceTrend(); !ok || s >= 0 {
		t.Fatalf("falling series should trend negative: %g %v", s, ok)
	}
	short := mk([]float64{1, 2})
	if _, ok := short.PerformanceTrend(); ok {
		t.Fatal("trend needs ≥5 events")
	}
}

func TestRootCauseAttributesPartitionChange(t *testing.T) {
	// The tuner moved shuffle partitions from 1800 (bad) to 100 (good)
	// while everything else stayed fixed; RCA must attribute the
	// improvement primarily to shuffle.partitions with a negative (faster)
	// contribution.
	e := sparksim.NewEngine(sparksim.QuerySpace())
	idx := e.Space.Index(sparksim.ShufflePartitions)
	d, _, _ := recordedDashboard(t, 24, func(i int, cfg sparksim.Config) sparksim.Config {
		p := 1800.0
		if i >= 12 {
			p = 100
		}
		// Small deterministic wiggle so the design matrix is not singular.
		out := e.Space.With(cfg, sparksim.ShufflePartitions, p+float64(i%3)*20)
		out = e.Space.With(out, sparksim.MaxPartitionBytes, (110+float64(i%4)*10)*(1<<20))
		return out
	})
	attrs, _, err := d.RootCause(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if attrs[0].Param != sparksim.ShufflePartitions {
		t.Fatalf("top attribution = %s; want shuffle partitions", attrs[0].Param)
	}
	if attrs[0].ContributionMs >= 0 {
		t.Fatalf("moving to fewer partitions should contribute speedup, got %+.0f ms", attrs[0].ContributionMs)
	}
	if attrs[0].DeltaNormalized >= 0 {
		t.Fatal("delta should be negative (partitions decreased)")
	}
	_ = idx
}

func TestRootCauseValidation(t *testing.T) {
	d, _, _ := recordedDashboard(t, 6, nil)
	if _, _, err := d.RootCause(4, 4); err == nil {
		t.Fatal("overlapping windows should error")
	}
	if _, _, err := d.RootCause(1, 2); err == nil {
		t.Fatal("tiny baseline should error")
	}
}

func TestReportAndTrace(t *testing.T) {
	d, _, _ := recordedDashboard(t, 20, func(i int, cfg sparksim.Config) sparksim.Config {
		e := sparksim.NewEngine(sparksim.QuerySpace())
		return e.Space.With(cfg, sparksim.ShufflePartitions, 100+float64(i*10))
	})
	var buf bytes.Buffer
	d.Report(&buf)
	out := buf.String()
	for _, want := range []string{"dashboard:", "observed time", "task count", "trend", "root-cause"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	d.ConfigTrace(&buf, 5)
	if !strings.Contains(buf.String(), "partitions") {
		t.Fatalf("trace missing parameter columns:\n%s", buf.String())
	}
	empty := New(sparksim.QuerySpace(), "x")
	buf.Reset()
	empty.Report(&buf)
	if !strings.Contains(buf.String(), "no executions") {
		t.Fatal("empty report should say so")
	}
}

func TestTrendFiniteUnderNoise(t *testing.T) {
	d, _, _ := recordedDashboard(t, 40, nil)
	s, ok := d.PerformanceTrend()
	if !ok || math.IsNaN(s) || math.IsInf(s, 0) {
		t.Fatalf("trend not finite: %g %v", s, ok)
	}
}
