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
	// Metrics derived from the execution's stage breakdown.
	Tasks          int
	SpillBytes     float64
	BroadcastJoins int
}

// Dashboard accumulates events for one query signature.
type Dashboard struct {
	Space     *sparksim.Space
	Signature string
	events    []Event
	drift     DriftDetector
}

// New returns an empty dashboard.
func New(space *sparksim.Space, signature string) *Dashboard {
	return &Dashboard{Space: space, Signature: signature}
}

// ObserveResidual feeds the signature's drift detector one
// observed-vs-predicted cost pair (both in ms; compared in log space, the
// surrogate's native scale) and reports the drift state after it. Callers
// with no model prediction simply don't feed the detector.
func (d *Dashboard) ObserveResidual(observedMs, predictedMs float64) bool {
	return d.drift.Observe(math.Log1p(observedMs) - math.Log1p(predictedMs))
}

// Drifting reports whether the signature's model has drifted off the
// observed costs (Page-Hinkley detector tripped).
func (d *Dashboard) Drifting() bool { return d.drift.Drifting() }

// DriftScore is the detector's current cumulative excursion.
func (d *Dashboard) DriftScore() float64 { return d.drift.Score() }

// Record adds an execution; stages may be nil when the stage breakdown is
// unavailable (e.g. real clusters exposing only aggregate metrics).
func (d *Dashboard) Record(o sparksim.Observation, stages []sparksim.StageStat) {
	ev := Event{
		Iteration:  o.Iteration,
		Config:     o.Config.Clone(),
		ObservedMs: o.Time,
		DataSize:   o.DataSize,
	}
	if stages != nil {
		ev.Tasks = sparksim.TotalTasks(stages)
		ev.SpillBytes = sparksim.TotalSpill(stages)
		ev.BroadcastJoins = sparksim.BroadcastJoins(stages)
	}
	if len(d.events) == cap(d.events) {
		// Grown like tuners.History: by an eighth, not doubled.
		grown := make([]Event, len(d.events), len(d.events)+max(len(d.events)/8, 4))
		copy(grown, d.events)
		d.events = grown
	}
	d.events = append(d.events, ev)
}

// Len returns the number of recorded events.
func (d *Dashboard) Len() int { return len(d.events) }

// Events returns a copy of the recorded events.
func (d *Dashboard) Events() []Event { return append([]Event(nil), d.events...) }

// PerformanceTrend fits observed time against iteration number and input
// size and returns the per-iteration relative slope (positive = regressing).
// ok is false with fewer than 5 events.
func (d *Dashboard) PerformanceTrend() (relSlope float64, ok bool) {
	if len(d.events) < 5 {
		return 0, false
	}
	x := make([][]float64, len(d.events))
	y := make([]float64, len(d.events))
	for i, e := range d.events {
		x[i] = []float64{float64(e.Iteration), math.Log1p(e.DataSize)}
		y[i] = e.ObservedMs
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
	if baseline < 2 || recent < 2 || baseline+recent > len(d.events) {
		return nil, 0, fmt.Errorf("monitor: need ≥2 baseline and ≥2 recent events within %d recorded", len(d.events))
	}
	x := make([][]float64, len(d.events))
	y := make([]float64, len(d.events))
	for i, e := range d.events {
		x[i] = tuners.ConfigFeatures(d.Space, nil, e.Config, e.DataSize)
		y[i] = e.ObservedMs
	}
	lin := ml.NewLinear(1e-4)
	if err := lin.Fit(x, y); err != nil {
		return nil, 0, fmt.Errorf("monitor: RCA fit: %w", err)
	}
	before := d.events[:baseline]
	after := d.events[len(d.events)-recent:]
	dim := d.Space.Dim()
	meanU := func(evs []Event, j int) float64 {
		var s float64
		for _, e := range evs {
			s += d.Space.Normalize(e.Config)[j]
		}
		return s / float64(len(evs))
	}
	for j := 0; j < dim; j++ {
		delta := meanU(after, j) - meanU(before, j)
		attrs = append(attrs, Attribution{
			Param:           d.Space.Params[j].Name,
			DeltaNormalized: delta,
			ContributionMs:  lin.RawSlope(j) * delta,
		})
	}
	meanSize := func(evs []Event) float64 {
		var s float64
		for _, e := range evs {
			s += math.Log1p(e.DataSize)
		}
		return s / float64(len(evs))
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
	for i := 0; i < len(d.events); i += every {
		e := d.events[i]
		fmt.Fprintf(w, "%6d", e.Iteration)
		for j := range d.Space.Params {
			fmt.Fprintf(w, " %18.4g", e.Config[j])
		}
		fmt.Fprintln(w)
	}
}

// Report renders the full dashboard: performance trend, metric summary, and
// RCA when enough data is available.
func (d *Dashboard) Report(w io.Writer) {
	fmt.Fprintf(w, "== dashboard: %s (%d executions) ==\n", d.Signature, len(d.events))
	if len(d.events) == 0 {
		fmt.Fprintln(w, "no executions recorded")
		return
	}
	times := make([]float64, len(d.events))
	sizes := make([]float64, len(d.events))
	tasks := make([]float64, len(d.events))
	for i, e := range d.events {
		times[i] = e.ObservedMs
		sizes[i] = e.DataSize
		tasks[i] = float64(e.Tasks)
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
	if d.drift.Samples() > 0 {
		state := "stable"
		if d.drift.Drifting() {
			state = "DRIFTING"
		}
		fmt.Fprintf(w, "model drift: %s (score %.3f over %d residuals)\n", state, d.drift.Score(), d.drift.Samples())
	}
	n := len(d.events) / 4
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
