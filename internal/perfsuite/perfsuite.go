// Package perfsuite defines the pinned performance-trajectory suite behind
// `rockbench -json` and `rockbench -compare`: a fixed set of named
// micro/macro benchmarks over the hot paths the tuning loop actually pays
// for — GP fit/predict/incremental-update at several design sizes, the
// event-log codec, WAL append/replay, embedding computation, and one
// end-to-end tuner iteration.
//
// A run produces a schema-versioned Report. Reports are committed to the
// repository (BENCH_<n>.json) so the project carries its performance
// trajectory in-tree, and Compare diffs two reports with a noise threshold.
// Because committed baselines travel across machines, Compare is strict
// only about machine-independent metrics: allocation counts (deterministic)
// and derived ratios such as the incremental-GP speedup (both sides of the
// ratio move together with CPU speed). Raw ns/op is reported for trend
// reading but never fails a comparison — see DESIGN.md §9.
package perfsuite

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
)

// Schema identifies the report layout; bump on incompatible change.
const Schema = 1

// SuiteName tags reports produced by this package.
const SuiteName = "rockhopper-perf"

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
}

// Report is the schema-versioned output of one suite run.
type Report struct {
	Schema    int    `json:"schema"`
	Suite     string `json:"suite"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Short     bool   `json:"short"`
	// Results holds the raw per-benchmark measurements in suite order.
	Results []Result `json:"results"`
	// Derived holds machine-independent ratio metrics computed from Results
	// (e.g. gp_update_speedup_n1024 = fit ns / incremental-update ns).
	// These, plus allocation counts, are what Compare enforces.
	Derived map[string]float64 `json:"derived"`
}

// Spec is one pinned benchmark: a stable name and a standard testing.B body.
type Spec struct {
	Name string
	Fn   func(b *testing.B)
}

// Run executes the pinned suite (Specs) and assembles the Report. short
// trims the most expensive entries (the n=1024 GP sizes and WAL replay
// stay, but fit repetitions are capped by testing.Benchmark's budget).
func Run(short bool) (*Report, error) {
	rep := &Report{
		Schema:    Schema,
		Suite:     SuiteName,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Short:     short,
		Derived:   map[string]float64{},
	}
	for _, s := range Specs(short) {
		br := testing.Benchmark(s.Fn)
		if br.N == 0 {
			return nil, fmt.Errorf("perfsuite: benchmark %s did not run", s.Name)
		}
		rep.Results = append(rep.Results, Result{
			Name:        s.Name,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: uint64(br.AllocsPerOp()),
			BytesPerOp:  uint64(br.AllocedBytesPerOp()),
		})
	}
	deriveRatios(rep)
	return rep, nil
}

// deriveRatios computes the machine-independent metrics from raw results.
func deriveRatios(rep *Report) {
	ns := map[string]float64{}
	for _, r := range rep.Results {
		ns[r.Name] = r.NsPerOp
	}
	for _, n := range []int{64, 256, 1024} {
		fit, okF := ns[fmt.Sprintf("gp_fit_n%d", n)]
		upd, okU := ns[fmt.Sprintf("gp_update_n%d", n)]
		if okF && okU && upd > 0 {
			rep.Derived[fmt.Sprintf("gp_update_speedup_n%d", n)] = fit / upd
		}
	}
	// Group-commit amortization: how much cheaper 512 mutations are as one
	// batch (one WAL record, one fsync) than as 512 standalone synced
	// appends. Both sides pay real fsyncs, so this is the production win.
	single, okS := ns["wal_append_sync"]
	batch, okB := ns[fmt.Sprintf("wal_batch_append_%d", 512)]
	if okS && okB && batch > 0 {
		rep.Derived["wal_batch_amortization_512"] = single * 512 / batch
	}
}

// Regression is one comparison failure.
type Regression struct {
	Metric string
	Old    float64
	New    float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.6g -> %.6g", r.Metric, r.Old, r.New)
}

// Compare diffs two reports over the metrics both contain. tol is the
// fractional noise threshold for derived ratios (0.25 = a ratio may degrade
// by up to 25% before it counts as a regression). Allocation counts are
// compared exactly: they are deterministic, so any increase is a
// regression. Raw ns/op differences are returned as advisory notes only.
func Compare(oldRep, newRep *Report, tol float64) (regs []Regression, notes []string) {
	oldRes := map[string]Result{}
	for _, r := range oldRep.Results {
		oldRes[r.Name] = r
	}
	for _, nr := range newRep.Results {
		or, ok := oldRes[nr.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: new benchmark (no baseline)", nr.Name))
			continue
		}
		if nr.AllocsPerOp > or.AllocsPerOp {
			regs = append(regs, Regression{Metric: nr.Name + " allocs/op", Old: float64(or.AllocsPerOp), New: float64(nr.AllocsPerOp)})
		}
		if or.NsPerOp > 0 {
			ratio := nr.NsPerOp / or.NsPerOp
			if ratio > 1+tol || ratio < 1-tol {
				notes = append(notes, fmt.Sprintf("%s: ns/op %.4g -> %.4g (%.2fx, advisory: raw times are machine-dependent)", nr.Name, or.NsPerOp, nr.NsPerOp, ratio))
			}
		}
	}
	keys := make([]string, 0, len(newRep.Derived))
	for k := range newRep.Derived {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		nv := newRep.Derived[k]
		ov, ok := oldRep.Derived[k]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: new derived metric (no baseline)", k))
			continue
		}
		// Derived metrics are oriented so larger is better.
		if ov > 0 && nv < ov*(1-tol) {
			regs = append(regs, Regression{Metric: k, Old: ov, New: nv})
		}
	}
	return regs, notes
}

// Floors are the absolute acceptance bounds the suite must keep meeting
// regardless of baseline drift: the incremental GP update must stay at
// least MinGPUpdateSpeedup× faster than a full refit at n=1024, and the
// event-log codec must stay allocation-free per record.
const MinGPUpdateSpeedup = 5.0

// CheckFloors validates rep against the absolute floors and returns the
// violations (empty means the report is acceptable).
func CheckFloors(rep *Report) []string {
	var bad []string
	if v, ok := rep.Derived["gp_update_speedup_n1024"]; ok {
		if v < MinGPUpdateSpeedup {
			bad = append(bad, fmt.Sprintf("gp_update_speedup_n1024 = %.2f < %.1f", v, MinGPUpdateSpeedup))
		}
	} else if !rep.Short {
		bad = append(bad, "gp_update_speedup_n1024 missing from full report")
	}
	for _, r := range rep.Results {
		if (r.Name == "eventlog_encode" || r.Name == "eventlog_decode") && r.AllocsPerOp != 0 {
			bad = append(bad, fmt.Sprintf("%s allocates %d per record; must be 0", r.Name, r.AllocsPerOp))
		}
	}
	return bad
}
