// Package monitor implements Rockhopper's monitoring dashboard (Section
// 6.3): real-time posterior analysis of query tuning. It records every
// tuned execution together with the configuration-sensitive metrics the
// paper lists — partitions, physical-plan strategy, task numbers, and input
// data sizes — and provides:
//
//   - visualization of configuration changes across iterations,
//   - visualization of performance trends, and
//   - Root Cause Analysis that attributes performance changes between two
//     periods to specific configuration dimensions, "to explain performance
//     changes [and] validate Rockhopper's configuration recommendations".
package monitor

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
)

// Event is one tuned execution with its collected metrics.
type Event struct {
	Iteration  int
	Config     sparksim.Config
	ObservedMs float64
	DataSize   float64
	Metrics
}

// Metrics are the configuration-sensitive metrics derived from one
// execution's stage breakdown.
type Metrics struct {
	Tasks          int
	SpillBytes     float64
	BroadcastJoins int
}

// Dashboard analyses the executions of one query signature. It reads each
// run's iteration, configuration, time and input size from a history of
// observations, and keeps of its own only the stage-derived metrics.
type Dashboard struct {
	Space     *sparksim.Space
	Signature string
	runs      *tuners.History
	// metrics[i] belongs to runs.Obs[i]; runs past its end, and runs
	// recorded without a stage breakdown, read zero metrics.
	metrics []Metrics
}

// New returns an empty dashboard that records its executions itself.
func New(space *sparksim.Space, signature string) *Dashboard {
	return Over(space, signature, new(tuners.History))
}

// Over returns a dashboard over runs another component records — a tuning
// session's learner history — so that no run is kept twice. Such a
// dashboard takes only RecordStages: Record would add the run to runs.
func Over(space *sparksim.Space, signature string, runs *tuners.History) *Dashboard {
	return &Dashboard{Space: space, Signature: signature, runs: runs}
}

// Record adds an execution; stages may be nil when the stage breakdown is
// unavailable (e.g. real clusters exposing only aggregate metrics).
func (d *Dashboard) Record(o sparksim.Observation, stages []sparksim.StageStat) {
	o.Config = o.Config.Clone()
	d.runs.Add(o)
	d.RecordStages(stages)
}

// RecordStages attaches a stage breakdown to the latest run. nil stages
// record nothing, and the run reads zero metrics.
func (d *Dashboard) RecordStages(stages []sparksim.StageStat) {
	i := d.runs.Len() - 1
	if stages == nil || i < 0 {
		return
	}
	if i >= cap(d.metrics) {
		// Grown like tuners.History: by an eighth, not doubled.
		grown := make([]Metrics, len(d.metrics), i+1+max(i/8, 4))
		copy(grown, d.metrics)
		d.metrics = grown
	}
	// Slots between the old length and i were never written: zero.
	d.metrics = d.metrics[:max(len(d.metrics), i+1)]
	d.metrics[i] = Metrics{
		Tasks:          sparksim.TotalTasks(stages),
		SpillBytes:     sparksim.TotalSpill(stages),
		BroadcastJoins: sparksim.BroadcastJoins(stages),
	}
}

// Len returns the number of recorded events.
func (d *Dashboard) Len() int { return d.runs.Len() }

// Events returns the recorded events, configurations copied.
func (d *Dashboard) Events() []Event {
	out := make([]Event, d.runs.Len())
	for i, o := range d.runs.Obs {
		out[i] = Event{Iteration: o.Iteration, Config: o.Config.Clone(), ObservedMs: o.Time, DataSize: o.DataSize, Metrics: d.metricsAt(i)}
	}
	return out
}

func (d *Dashboard) metricsAt(i int) Metrics {
	if i < len(d.metrics) {
		return d.metrics[i]
	}
	return Metrics{}
}

// PerformanceTrend fits observed time against iteration number and input
// size and returns the per-iteration relative slope (positive = regressing).
// ok is false with fewer than 5 events.
func (d *Dashboard) PerformanceTrend() (relSlope float64, ok bool) {
	runs := d.runs.Obs
	if len(runs) < 5 {
		return 0, false
	}
	x := make([][]float64, len(runs))
	y := make([]float64, len(runs))
	for i, o := range runs {
		x[i] = []float64{float64(o.Iteration), math.Log1p(o.DataSize)}
		y[i] = o.Time
	}
	lin := ml.NewLinear(1e-6)
	if err := lin.Fit(x, y); err != nil {
		return 0, false
	}
	level := stats.Median(y)
	if level <= 0 {
		return 0, false
	}
	return lin.RawSlope(0) / level, true
}

// Attribution explains how much of a performance change one configuration
// dimension is responsible for.
type Attribution struct {
	Param string
	// DeltaNormalized is the mean normalized-config movement between the
	// two periods.
	DeltaNormalized float64
	// ContributionMs is the estimated time change caused by that movement
	// (positive = made the query slower).
	ContributionMs float64
}

// RootCause attributes the performance difference between the first
// `baseline` events and the last `recent` events to configuration
// dimensions, using a linear surface fitted over all events (config in
// normalized coordinates plus log input size). The residual after
// config-attributable changes is reported as dataContribution — the "changes
// in data size" bucket the paper's analysis filters out.
func (d *Dashboard) RootCause(baseline, recent int) (attrs []Attribution, dataContributionMs float64, err error) {
	runs := d.runs.Obs
	if baseline < 2 || recent < 2 || baseline+recent > len(runs) {
		return nil, 0, fmt.Errorf("monitor: need ≥2 baseline and ≥2 recent events within %d recorded", len(runs))
	}
	x := make([][]float64, len(runs))
	y := make([]float64, len(runs))
	for i, o := range runs {
		x[i] = tuners.ConfigFeatures(d.Space, nil, o.Config, o.DataSize)
		y[i] = o.Time
	}
	lin := ml.NewLinear(1e-4)
	if err := lin.Fit(x, y); err != nil {
		return nil, 0, fmt.Errorf("monitor: RCA fit: %w", err)
	}
	before := runs[:baseline]
	after := runs[len(runs)-recent:]
	dim := d.Space.Dim()
	meanU := func(w []sparksim.Observation, j int) float64 {
		var s float64
		for _, o := range w {
			s += d.Space.Normalize(o.Config)[j]
		}
		return s / float64(len(w))
	}
	for j := 0; j < dim; j++ {
		delta := meanU(after, j) - meanU(before, j)
		attrs = append(attrs, Attribution{
			Param:           d.Space.Params[j].Name,
			DeltaNormalized: delta,
			ContributionMs:  lin.RawSlope(j) * delta,
		})
	}
	meanSize := func(w []sparksim.Observation) float64 {
		var s float64
		for _, o := range w {
			s += math.Log1p(o.DataSize)
		}
		return s / float64(len(w))
	}
	dataContributionMs = lin.RawSlope(dim) * (meanSize(after) - meanSize(before))
	sort.Slice(attrs, func(a, b int) bool {
		return math.Abs(attrs[a].ContributionMs) > math.Abs(attrs[b].ContributionMs)
	})
	return attrs, dataContributionMs, nil
}

// ConfigTrace renders the per-dimension configuration trajectory (the
// "visualization of configuration changes across iterations"), sampling
// every `every` events.
func (d *Dashboard) ConfigTrace(w io.Writer, every int) {
	if every < 1 {
		every = 1
	}
	fmt.Fprintf(w, "configuration trace for %s\n%6s", d.Signature, "iter")
	for _, p := range d.Space.Params {
		fmt.Fprintf(w, " %18s", shortName(p.Name))
	}
	fmt.Fprintln(w)
	for i := 0; i < d.runs.Len(); i += every {
		o := d.runs.Obs[i]
		fmt.Fprintf(w, "%6d", o.Iteration)
		for j := range d.Space.Params {
			fmt.Fprintf(w, " %18.4g", o.Config[j])
		}
		fmt.Fprintln(w)
	}
}

// Report renders the full dashboard: performance trend, metric summary, and
// RCA when enough data is available.
func (d *Dashboard) Report(w io.Writer) {
	runs := d.runs.Obs
	fmt.Fprintf(w, "== dashboard: %s (%d executions) ==\n", d.Signature, len(runs))
	if len(runs) == 0 {
		fmt.Fprintln(w, "no executions recorded")
		return
	}
	times := make([]float64, len(runs))
	sizes := make([]float64, len(runs))
	tasks := make([]float64, len(runs))
	for i, o := range runs {
		times[i] = o.Time
		sizes[i] = o.DataSize
		tasks[i] = float64(d.metricsAt(i).Tasks)
	}
	fmt.Fprintf(w, "observed time: %v\n", stats.Summarize(times))
	fmt.Fprintf(w, "input size:    %v\n", stats.Summarize(sizes))
	fmt.Fprintf(w, "task count:    %v\n", stats.Summarize(tasks))
	if slope, ok := d.PerformanceTrend(); ok {
		verdict := "stable"
		switch {
		case slope < -0.002:
			verdict = "improving"
		case slope > 0.002:
			verdict = "regressing"
		}
		fmt.Fprintf(w, "trend: %+.3f%%/iteration (%s)\n", slope*100, verdict)
	}
	n := len(runs) / 4
	if n >= 2 {
		attrs, dataMs, err := d.RootCause(n, n)
		if err == nil {
			fmt.Fprintln(w, "root-cause attribution (first quarter → last quarter):")
			for _, a := range attrs {
				fmt.Fprintf(w, "  %-44s Δ=%+.3f  %+.0f ms\n", a.Param, a.DeltaNormalized, a.ContributionMs)
			}
			fmt.Fprintf(w, "  %-44s         %+.0f ms\n", "input data size", dataMs)
		}
	}
}

func shortName(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}
