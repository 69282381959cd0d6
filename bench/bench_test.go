package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}, {99, 39.7}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestLaneNestsSpansAndMerges(t *testing.T) {
	clock := resilience.NewFakeClock(time.Unix(0, 0))
	ln := newLane(clock)
	if id := ln.begin("ignored"); id != -1 || len(ln.spans) != 0 {
		t.Fatal("a lane that is off recorded a span")
	}
	ln.on = true
	for i := 0; i < 2; i++ {
		loop := ln.begin("loop")
		a := ln.begin("post")
		clock.Advance(3 * time.Millisecond)
		h := ln.begin("http.events")
		clock.Advance(2 * time.Millisecond)
		ln.end(h)
		ln.end(a)
		b := ln.begin("drain")
		clock.Advance(4 * time.Millisecond)
		ln.end(b)
		clock.Advance(time.Millisecond) // loop self time
		ln.end(loop)
	}
	if got := durations(ln.spans, "post"); len(got) != 2 || got[0] != 5 {
		t.Errorf("post spans %v, want two of 5 ms", got)
	}
	if s := ln.spans[2]; s.Name != "http.events" || ln.spans[s.Parent].Name != "post" || s.Loop != 0 {
		t.Errorf("http span %+v is not a child of post in loop 0", s)
	}
	if got := loopCoverage(ln.spans); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("loop coverage %v, want 0.9 (9 of 10 ms in direct children)", got)
	}
	other := newLane(clock)
	other.on = true
	other.end(other.begin("loop"))
	merged := mergeLanes(ln, other)
	last := merged[len(merged)-1]
	if last.ID != len(merged)-1 || last.Loop != 2 || last.Parent != -1 {
		t.Errorf("merged span %+v: ids and loops must stay unique across lanes", last)
	}
}

// runSmoke runs one workload in-process at smoke scale and returns its result.
func runSmoke(t *testing.T, workload string, trace string) result {
	t.Helper()
	var out, errs bytes.Buffer
	code := mainCode(context.Background(), []string{
		"-workload", workload, "-seed", "7", "-seconds", "0.5", "-trace", trace, "-scale", "smoke", "-out", t.TempDir(),
	}, &out, &errs)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s%s", workload, trace, code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkMetrics(t *testing.T, label string, res result, defs []metricDef, nonzero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, want %d", label, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, d.name)
		case !finite(m.Value) || m.Unit != d.unit || m.Unit == "":
			t.Errorf("%s: metric %s = %v %q, want a finite value in %q", label, d.name, m.Value, m.Unit, d.unit)
		case nonzero && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", label, d.name, m.Value)
		}
	}
}

// TestSmokeEveryWorkload runs all four workloads, untraced and traced, at
// smoke scale: every named metric must be present, finite and carry its unit,
// and every correctness check must hold.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloadTable {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			checkMetrics(t, wl.name+" end-to-end", runSmoke(t, wl.name, "0"), endToEnd, true)
			layers := runSmoke(t, wl.name, "1")
			checkMetrics(t, wl.name+" per-layer", layers, perLayer, false)
			if got := layers.Metrics["bench.loop_coverage_pct"].Value; got < 95 {
				t.Errorf("%s: child spans cover %.2f%% of the loop spans, want >= 95%%", wl.name, got)
			}
		})
	}
}

// TestTunedGainRepeatsForASeed pins the determinism core.tuned_gain_pct
// relies on: two runs of one seed make the same recommendations.
func TestTunedGainRepeatsForASeed(t *testing.T) {
	a := runSmoke(t, "loop_long", "1").Metrics["core.tuned_gain_pct"].Value
	b := runSmoke(t, "loop_long", "1").Metrics["core.tuned_gain_pct"].Value
	if a != b || a == 0 {
		t.Errorf("core.tuned_gain_pct = %v then %v for the same seed, want identical and non-zero", a, b)
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json at the repository root
// to the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []row
		EndToEnd   []row `json:"end_to_end"`
		PerLayer   []row `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloadTable))
	}
	for i, w := range workloadTable {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	compare := func(kind string, rows []row, defs []metricDef, bounded bool) {
		if len(rows) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(rows), len(defs))
		}
		for i, d := range defs {
			r := rows[i]
			if r.Name != d.name || r.Unit != d.unit || r.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, r, d)
			}
			if bounded != (r.Bound != nil) || (bounded && (*r.Bound != d.bound || d.bound > 0.25)) {
				t.Errorf("%s %s: bound in BENCHMARK.json %v, in the program %v", kind, d.name, r.Bound, d.bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}
