package eventlog

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/embedding"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

func simulateRuns(t *testing.T, n int) (*bytes.Buffer, *sparksim.Space, *sparksim.Query) {
	t.Helper()
	space := sparksim.QuerySpace()
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(3).Query(workloads.TPCDS, 2)
	r := stats.NewRNG(5)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		cfg := space.Random(r)
		o := e.Run(q, cfg, 1, r, noise.Low)
		o.Iteration = i
		stages, _ := e.Explain(q, cfg, 1)
		if err := WriteRun(&buf, int64(i), space, q, o, stages, 5); err != nil {
			t.Fatal(err)
		}
	}
	return &buf, space, q
}

func TestRoundTrip(t *testing.T) {
	t.Parallel()
	buf, space, q := simulateRuns(t, 6)
	runs, err := Parse(buf, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 {
		t.Fatalf("runs = %d", len(runs))
	}
	for i, run := range runs {
		if run.QueryID != q.ID {
			t.Fatalf("run %d query id %q", i, run.QueryID)
		}
		if run.DurationMs <= 0 || run.InputBytes <= 0 {
			t.Fatalf("run %d degenerate: %+v", i, run)
		}
		if run.TaskEvents == 0 {
			t.Fatalf("run %d has no task events", i)
		}
		if err := run.Plan.Validate(); err != nil {
			t.Fatalf("run %d plan invalid after round trip: %v", i, err)
		}
		// The reassembled plan must embed identically to the original.
		emb := embedding.NewVirtual()
		a, b := emb.Embed(run.Plan), emb.Embed(q.Plan)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("run %d embedding drift at %d", i, j)
			}
		}
		// Config snapping must hold.
		for j, p := range space.Params {
			if run.Config[j] < p.Min || run.Config[j] > p.Max {
				t.Fatalf("run %d config out of bounds", i)
			}
		}
	}
}

func TestParseDropsTruncatedExecutions(t *testing.T) {
	t.Parallel()
	buf, space, _ := simulateRuns(t, 3)
	// Chop the log so the final ExecutionEnd is lost.
	raw := buf.String()
	idx := strings.LastIndex(raw, `{"Event":"SparkListenerSQLExecutionEnd"`)
	runs, err := Parse(strings.NewReader(raw[:idx]), space)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("truncated log should yield 2 complete runs, got %d", len(runs))
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	t.Parallel()
	space := sparksim.QuerySpace()
	if _, err := Parse(strings.NewReader("{nope"), space); err == nil {
		t.Fatal("garbage should error")
	}
	// Start without a plan.
	bad := `{"Event":"SparkListenerSQLExecutionStart","executionId":1}` + "\n"
	if _, err := Parse(strings.NewReader(bad), space); err == nil {
		t.Fatal("start without plan should error")
	}
}

func TestParseIgnoresOrphanEnd(t *testing.T) {
	t.Parallel()
	space := sparksim.QuerySpace()
	orphan := `{"Event":"SparkListenerSQLExecutionEnd","executionId":9,"durationMs":5}` + "\n"
	runs, err := Parse(strings.NewReader(orphan), space)
	if err != nil || len(runs) != 0 {
		t.Fatalf("orphan end should be skipped: %v %d", err, len(runs))
	}
}

func TestETL(t *testing.T) {
	t.Parallel()
	buf, space, q := simulateRuns(t, 4)
	runs, err := Parse(buf, space)
	if err != nil {
		t.Fatal(err)
	}
	traces := ETL(runs, nil)
	if len(traces) != 4 {
		t.Fatalf("traces = %d", len(traces))
	}
	emb := embedding.NewVirtual()
	want := emb.Embed(q.Plan)
	for _, tr := range traces {
		if tr.TimeMs <= 0 || len(tr.Embedding) != emb.Dim() {
			t.Fatalf("trace malformed: %+v", tr)
		}
		for j := range want {
			if tr.Embedding[j] != want[j] {
				t.Fatal("ETL embedding mismatch")
			}
		}
	}
	// Zero-duration runs are filtered.
	runs[0].DurationMs = 0
	if got := ETL(runs, emb); len(got) != 3 {
		t.Fatalf("zero-duration run not filtered: %d", len(got))
	}
}

// TestWriteRunBytesUnchanged pins WriteRun's stream to encoding/json's
// rendering: every line must round-trip through json.Marshal as a fixed
// point.
func TestWriteRunBytesUnchanged(t *testing.T) {
	t.Parallel()
	buf, _, _ := simulateRuns(t, 4)
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) < 8 {
		t.Fatalf("suspiciously few event lines: %d", len(lines))
	}
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d does not parse: %v", i, err)
		}
		re, err := json.Marshal(&ev)
		if err != nil {
			t.Fatalf("line %d re-marshal: %v", i, err)
		}
		if !bytes.Equal(line, re) {
			t.Fatalf("line %d is not an encoding/json fixed point:\n got %s\nwant %s", i, line, re)
		}
	}
}

// TestDigest: every complete execution with a duration becomes one trace
// keyed by its plan's signature; a log with no complete execution is an
// error, and a run without a duration is dropped.
func TestDigest(t *testing.T) {
	t.Parallel()
	buf, space, q := simulateRuns(t, 3)
	traces, err := Digest(buf.Bytes(), space)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("traces = %d, want 3", len(traces))
	}
	for _, tr := range traces {
		if tr.QueryID != sparksim.Signature(q.Plan) {
			t.Fatalf("trace keyed %q, want the plan signature %q", tr.QueryID, sparksim.Signature(q.Plan))
		}
	}

	start := buf.String()[:strings.Index(buf.String(), "\n")+1]
	for _, tc := range []struct{ name, log string }{{"empty", ""}, {"start-only", start}} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Digest([]byte(tc.log), space); err == nil {
				t.Errorf("%s log: Digest succeeded, want an error", tc.name)
			}
		})
	}

	t.Run("no-duration", func(t *testing.T) {
		noDuration := start + `{"Event":"SparkListenerSQLExecutionEnd","executionId":0}` + "\n"
		traces, err := Digest([]byte(noDuration), space)
		if err != nil || len(traces) != 0 {
			t.Errorf("run without a duration: %d traces, %v; want it dropped", len(traces), err)
		}
	})
}
