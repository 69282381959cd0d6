package flighting

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

func pipeline() *Pipeline {
	return NewPipeline(sparksim.NewEngine(sparksim.QuerySpace()))
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	bad := []Config{
		{Suite: "oops", ScaleFactor: 1, RunsPerQuery: 1},
		{Suite: workloads.TPCH, ScaleFactor: 0, RunsPerQuery: 1},
		{Suite: workloads.TPCH, ScaleFactor: 1, RunsPerQuery: 0},
		{Suite: workloads.TPCH, ScaleFactor: 1, RunsPerQuery: 1, Algorithm: "genetic"},
		{Suite: workloads.TPCH, ScaleFactor: 1, RunsPerQuery: 1, Queries: []int{23}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
	good := Config{Suite: workloads.TPCDS, ScaleFactor: 1, RunsPerQuery: 3, Algorithm: "random", Queries: []int{1, 99}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunProducesTraces(t *testing.T) {
	t.Parallel()
	p := pipeline()
	traces, err := p.Run(Config{
		Suite: workloads.TPCH, ScaleFactor: 1, RunsPerQuery: 5,
		Queries: []int{1, 2, 3}, Seed: 7, Noise: noise.Low,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 15 {
		t.Fatalf("traces = %d; want 15", len(traces))
	}
	byQuery := map[string]int{}
	for _, tr := range traces {
		byQuery[tr.QueryID]++
		if tr.TimeMs <= 0 || tr.DataSize <= 0 {
			t.Fatalf("degenerate trace %+v", tr)
		}
		if len(tr.Embedding) != p.Embedder.Dim() {
			t.Fatalf("embedding width %d", len(tr.Embedding))
		}
	}
	for q, n := range byQuery {
		if n != 5 {
			t.Fatalf("query %s has %d runs", q, n)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	t.Parallel()
	cfg := Config{Suite: workloads.TPCH, ScaleFactor: 1, RunsPerQuery: 3, Queries: []int{5}, Seed: 11}
	a, err := pipeline().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].TimeMs != b[i].TimeMs {
			t.Fatalf("trace %d differs across runs", i)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	t.Parallel()
	traces, err := pipeline().Run(Config{
		Suite: workloads.TPCH, ScaleFactor: 1, RunsPerQuery: 2, Queries: []int{1}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraces(&buf, traces); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(traces) {
		t.Fatalf("round trip count %d vs %d", len(back), len(traces))
	}
	for i := range back {
		if back[i].QueryID != traces[i].QueryID || back[i].TimeMs != traces[i].TimeMs {
			t.Fatalf("trace %d round trip mismatch", i)
		}
	}
	if _, err := ReadTraces(bytes.NewBufferString("{broken")); err == nil {
		t.Fatal("corrupt stream should error")
	}
}

// TestTraceEmbeddingOmittedWhenNil pins the stored form of an event: a nil
// embedding writes no key, a non-nil one round-trips, and files written
// before the key became optional (an explicit null) still read.
func TestTraceEmbeddingOmittedWhenNil(t *testing.T) {
	t.Parallel()
	bare := Trace{QueryID: "s", Config: sparksim.Config{1, 2, 3}, DataSize: 1e9, TimeMs: 1000}
	embedded := bare
	embedded.Embedding = []float64{0.25, -1}
	var buf bytes.Buffer
	if err := WriteTraces(&buf, []Trace{bare, embedded}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || strings.Contains(lines[0], "embedding") || !strings.Contains(lines[1], `"embedding":[0.25,-1]`) {
		t.Fatalf("written traces:\n%s", buf.String())
	}
	old := `{"query_id":"s","embedding":null,"config":[1,2,3],"data_size":1e9,"time_ms":1000}` + "\n"
	back, err := ReadTraces(strings.NewReader(old + buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Trace{bare, bare, embedded}; !reflect.DeepEqual(back, want) {
		t.Fatalf("read back %+v; want %+v", back, want)
	}
}

func TestLeaveOneOut(t *testing.T) {
	t.Parallel()
	traces, err := pipeline().Run(Config{
		Suite: workloads.TPCH, ScaleFactor: 1, RunsPerQuery: 4, Queries: []int{1, 2, 3}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(9)
	pts := LeaveOneOut(traces, "tpch-q2", 6, r)
	if len(pts) != 6 {
		t.Fatalf("sampled %d; want 6", len(pts))
	}
	all := LeaveOneOut(traces, "tpch-q2", 0, r)
	if len(all) != 8 {
		t.Fatalf("exclusion kept %d; want 8", len(all))
	}
	// No point may carry the excluded query's embedding + config pair; we
	// verify via count only since embeddings repeat per query.
	if len(LeaveOneOut(traces, "nonexistent", 0, r)) != 12 {
		t.Fatal("excluding an unknown query should keep everything")
	}
}

func TestToBaseline(t *testing.T) {
	t.Parallel()
	tr := Trace{QueryID: "x", Embedding: []float64{1}, Config: sparksim.Config{2}, DataSize: 3, TimeMs: 4}
	pts := ToBaseline([]Trace{tr})
	if pts[0].Time != 4 || pts[0].DataSize != 3 || pts[0].Context[0] != 1 {
		t.Fatalf("baseline point wrong: %+v", pts[0])
	}
}

func TestCachedPlatform(t *testing.T) {
	t.Parallel()
	e := sparksim.NewEngine(sparksim.QuerySpace())
	q := workloads.NewGenerator(1).Query(workloads.TPCH, 2)
	cp := NewCachedPlatform(e, q, 275, 1, 42)
	if len(cp.Configs) != 275 || len(cp.Times) != 275 {
		t.Fatalf("platform size %d/%d", len(cp.Configs), len(cp.Times))
	}
	// The default config is always recorded, and looking it up must return
	// its exact cached time.
	idx, time := cp.Lookup(e.Space, e.Space.Default())
	if idx != 0 {
		t.Fatalf("default lookup idx = %d", idx)
	}
	if time != e.TrueTime(q, e.Space.Default(), 1) {
		t.Fatal("cached default time mismatch")
	}
	if cp.BestTime() > time {
		t.Fatal("best cached time cannot exceed the default's")
	}
	if cp.Scale() != 1 {
		t.Fatal("scale accessor wrong")
	}
	// Lookup of an arbitrary config returns some recorded candidate.
	r := stats.NewRNG(3)
	for i := 0; i < 20; i++ {
		idx, tm := cp.Lookup(e.Space, e.Space.Random(r))
		if idx < 0 || idx >= 275 || tm != cp.Times[idx] {
			t.Fatal("lookup out of range")
		}
	}
}

func TestLHSAlgorithm(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Suite: workloads.TPCH, ScaleFactor: 1, RunsPerQuery: 10,
		Queries: []int{1}, Seed: 21, Algorithm: "lhs",
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	traces, err := pipeline().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 10 {
		t.Fatalf("traces = %d", len(traces))
	}
	// LHS must hit both halves of every dimension's range with 10 samples.
	space := sparksim.QuerySpace()
	for j := 0; j < space.Dim(); j++ {
		lo, hi := false, false
		for _, tr := range traces {
			if u := space.Normalize(tr.Config)[j]; u < 0.5 {
				lo = true
			} else {
				hi = true
			}
		}
		if !lo || !hi {
			t.Fatalf("dim %d not stratified", j)
		}
	}
}
