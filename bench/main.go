// Command bench measures one loop of the paper's Fig. 7 — a run's events
// arrive, become durable and replicated, the signature's model is retrained,
// the next submission fetches it — through the real client, backend, store
// and fleet packages over loopback HTTP, end to end and layer by layer.
// README.md documents workloads, metrics and configuration; BENCHMARK.json at
// the repository root is the contract the numbers are gated against.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

type workload struct {
	name, why string
	run       func(*run) error
}

var workloadTable = []workload{
	{"loop_short", "384 sessions with short histories: client, HTTP, token and WAL fsync dominate, retrain does not", (*run).loopShort},
	{"loop_long", "2 signatures with 512+ runs each: store list/read, trace decode, kernel-ridge fit and model fetch dominate", (*run).loopLong},
	{"batch_fleet3", "128-signature batches through a 3-node replicated fleet: ring partitioning, group commit and replication-gated acks", (*run).batchFleet3},
	{"mixed_rw", "a posting client and a selecting client, both closed-loop, on one node: reads beside writes while retrains replace the models underneath", (*run).mixedRW},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, in the shape the contract fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what -out keeps of a run: the result plus where it came from.
type report struct {
	Workload   string  `json:"workload"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	Traced     bool    `json:"traced"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Checks     []check `json:"checks"`
	result
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	scale     string
	out       string
	selfcheck bool
}

func main() {
	os.Exit(mainCode(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "loop_short, loop_long, batch_fleet3, mixed_rw, or all (each in a fresh child process, untraced then traced)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and runs the layer probes, and reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.scale, "scale", "full", "full or smoke (tiny op counts, for tests)")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for <workload>.json and trace-<workload>.json; empty writes nothing")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.selfcheck:
		err = selfcheck(ctx, o, stdout)
	case o.workload == "all":
		err = runAll(ctx, o, stdout)
	default:
		err = runOne(ctx, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne measures one workload in this process and prints its metrics, its
// checks and, last, the result line.
func runOne(ctx context.Context, o options, stdout io.Writer) error {
	var wl *workload
	for i := range workloadTable {
		if workloadTable[i].name == o.workload {
			wl = &workloadTable[i]
		}
	}
	sz, ok := scales[o.scale]
	if wl == nil || !ok || o.seconds <= 0 {
		return fmt.Errorf("unknown workload %q or scale %q, or -seconds %v not positive", o.workload, o.scale, o.seconds)
	}
	tmp, err := os.MkdirTemp("", "rockhopper-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	r := &run{ctx: ctx, clock: resilience.RealClock{}, seed: o.seed, trace: o.trace != 0, sz: sz, tmp: tmp,
		window: time.Duration(o.seconds * float64(time.Second)), vals: map[string]float64{}}
	if err := wl.run(r); err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	if r.attempted > 0 {
		r.set("bench.failed_share", float64(r.failed)/float64(r.attempted))
	}

	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %d scale %s\n", wl.name, o.seed, o.seconds, o.trace, o.scale)
	for _, d := range defs {
		v := r.vals[d.name]
		if !finite(v) {
			return fmt.Errorf("%s: metric %s is %v", wl.name, d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.name, v, d.unit)
	}
	if !r.trace {
		fmt.Fprintf(w, "  %-36s %14.4f ratio (%d of %d)\n", "failed_share", r.vals["bench.failed_share"], r.failed, r.attempted)
		fmt.Fprintf(w, "  %-36s %14.4f %%\n", "core.tuned_gain_pct", r.vals["core.tuned_gain_pct"])
	}
	for _, c := range r.checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-24s %s\n", verdict, c.Name, c.Detail)
	}
	if o.out != "" {
		if err := writeReports(o, r, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or a check did not hold", wl.name, r.failed, r.attempted)
	}
	return nil
}

func writeReports(o options, r *run, res result) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := o.workload
	if r.trace {
		name += "-layers"
		if err := writeJSON(filepath.Join(o.out, "trace-"+o.workload+".json"), r.spans); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(o.out, name+".json"), report{
		Workload: o.workload, Commit: commit(), Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Traced: r.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Checks: r.checks, result: res,
	})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit names the source the numbers belong to; a checkout that is not a git
// repository has none.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// child runs one workload in a fresh process, so no workload inherits
// another's heap, connections or page cache footprint, and returns its
// result line. The child's own listing goes to stdout when it is not nil.
func child(ctx context.Context, o options, workload string, trace int, stdout io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-scale", o.scale, "-out", o.out)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if stdout != nil {
		fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
	}
	if runErr != nil {
		return result{}, fmt.Errorf("%s (trace %d): %w", workload, trace, runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): result line: %w", workload, trace, err)
	}
	return res, nil
}

// runAll is the one command: every workload, untraced for the end-to-end
// numbers and then traced for the per-layer ones.
func runAll(ctx context.Context, o options, stdout io.Writer) error {
	for _, wl := range workloadTable {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(ctx, o, wl.name, trace, stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

// selfcheck runs two full untraced sets back to back and holds every
// end-to-end metric's relative difference to its bound.
func selfcheck(ctx context.Context, o options, stdout io.Writer) error {
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = map[string]result{}
		for _, wl := range workloadTable {
			res, err := child(ctx, o, wl.name, 0, nil)
			if err != nil {
				return err
			}
			sets[i][wl.name] = res
		}
	}
	over := 0
	for _, wl := range workloadTable {
		for _, d := range endToEnd {
			a, b := sets[0][wl.name].Metrics[d.name].Value, sets[1][wl.name].Metrics[d.name].Value
			rel := math.Abs(b-a) / math.Abs(a)
			verdict := "ok"
			if !(rel <= d.bound) {
				verdict = "OVER"
				over++
			}
			fmt.Fprintf(stdout, "%-13s %-18s %12.4f %12.4f %-4s diff %5.1f%% bound %4.0f%% %s\n",
				wl.name, d.name, a, b, d.unit, rel*100, d.bound*100, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two runs of the same code by more than their bound", over)
	}
	return nil
}
