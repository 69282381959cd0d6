package flighting

import (
	"bytes"
	"fmt"
	"math"
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

// TestParseTracesMatchesReadTraces: ParseTraces must accept exactly the
// streams ReadTraces accepts and return the same traces or the same error,
// whether the stream is one trace per line (its fast path) or any other
// layout JSON allows.
func TestParseTracesMatchesReadTraces(t *testing.T) {
	t.Parallel()
	traces, err := pipeline().Run(Config{
		Suite: workloads.TPCH, ScaleFactor: 1, RunsPerQuery: 2, Queries: []int{1, 2}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var canonical bytes.Buffer
	if err := WriteTraces(&canonical, traces); err != nil {
		t.Fatal(err)
	}
	line := strings.SplitN(canonical.String(), "\n", 2)[0]
	for _, in := range []string{
		canonical.String(),
		"",
		"\n\n",
		"\n" + line + "\r\n\n" + line, // blank lines, CRLF, no final newline
		line + " " + line + "\n",      // two values on one line
		strings.ReplaceAll(line, ",", ",\n  ") + "\n",        // one value over many lines
		"null\n" + line + "\n",                               // a null decodes to a zero trace
		line + "\n{broken\n",                                 // an error after a good line
		line + "\n[1]\n",                                     // a value of the wrong type
		`{"query_id":"x","query_id":"y","time_ms":1}` + "\n", // a duplicate key
	} {
		want, werr := ReadTraces(strings.NewReader(in))
		got, gerr := ParseTraces([]byte(in))
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("ParseTraces(%q) = (%+v, %v); ReadTraces = (%+v, %v)", in, got, gerr, want, werr)
		}
	}
}

// sameRowFields reports whether a row holds bit for bit the configuration,
// size and time of a trace (a nil and an empty configuration differ).
func sameRowFields(r Row, t Trace) bool {
	if (r.Config == nil) != (t.Config == nil) || len(r.Config) != len(t.Config) {
		return false
	}
	for i := range r.Config {
		if math.Float64bits(r.Config[i]) != math.Float64bits(t.Config[i]) {
			return false
		}
	}
	return math.Float64bits(r.DataSize) == math.Float64bits(t.DataSize) &&
		math.Float64bits(r.TimeMs) == math.Float64bits(t.TimeMs)
}

// checkRowsMatchTraces holds AppendRows to ParseTraces on one stream: every
// stream ParseTraces accepts, AppendRows accepts with the same number of
// rows, each carrying its trace's configuration, size and time bit for bit;
// AppendRows rejects only streams ParseTraces rejects too (it may accept a
// stream whose skipped keys ParseTraces refuses, such as an embedding that
// is not a list of numbers). dst's prefix is never touched.
func checkRowsMatchTraces(t *testing.T, in []byte) {
	t.Helper()
	traces, terr := ParseTraces(in)
	prefix := []Row{{Config: sparksim.Config{7}, DataSize: 8, TimeMs: 9}}
	rows, rerr := AppendRows(prefix, in)
	if len(rows) < 1 || !reflect.DeepEqual(rows[0], prefix[0]) {
		t.Fatalf("AppendRows(%q) changed dst's prefix: %+v", in, rows)
	}
	rows = rows[1:]
	switch {
	case rerr != nil && terr == nil:
		t.Fatalf("AppendRows(%q) rejects a stream ParseTraces accepts: %v", in, rerr)
	case rerr != nil && len(rows) != 0:
		t.Fatalf("AppendRows(%q) failed with %v but appended %d rows", in, rerr, len(rows))
	case terr != nil:
		return
	case len(rows) != len(traces):
		t.Fatalf("AppendRows(%q) = %d rows, ParseTraces = %d traces", in, len(rows), len(traces))
	}
	for i := range rows {
		if !sameRowFields(rows[i], traces[i]) {
			t.Fatalf("AppendRows(%q) row %d = %+v, trace = %+v", in, i, rows[i], traces[i])
		}
	}
}

// rowSeeds are WriteTraces renderings with and without a 101-wide
// embedding, plus the spellings of numbers and strings the JSON grammar
// allows beyond them: exponents, -0, escapes in query_id, and the layouts
// that send both decoders down their stream path.
func rowSeeds(t testing.TB) [][]byte {
	emb := make([]float64, 101)
	for i := range emb {
		emb[i] = float64(i)/7 - 3
	}
	traces := []Trace{
		{QueryID: "q1", Embedding: emb, Config: sparksim.Config{134217728, 10485760, 200}, DataSize: 1e9, TimeMs: 1234.5},
		{QueryID: "q\"2\\", Config: sparksim.Config{1.5e-300, -0.0, 3}, DataSize: 0, TimeMs: 5e-324},
	}
	var with, without bytes.Buffer
	if err := WriteTraces(&with, traces[:1]); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraces(&without, traces[1:]); err != nil {
		t.Fatal(err)
	}
	both := with.String() + without.String()
	seeds := []string{
		with.String(),
		without.String(),
		both,
		"",
		"\n\n",
		strings.ReplaceAll(both, ",", ",\n "),
		`{"query_id":"aé\n\"","config":[1E+2,-0,0.5e-3],"data_size":-0,"time_ms":1e308}` + "\n",
		`{"embedding":"not numbers","config":[1],"time_ms":2}` + "\n",
		`{"embedding":[1e400],"config":[1],"time_ms":2}` + "\n",
		`{"CONFIG":[1],"Time_Ms":3,"config":[2,3]}` + "\n",
		"null\n" + with.String(),
		with.String() + "{broken\n",
		with.String() + "[1]\n",
		`{"config":[1],"time_ms":1} {"config":[2],"time_ms":2}` + "\n",
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// TestAppendRowsMatchesParseTraces runs the fuzz target's check over its
// seeds, so tier-1 holds the decoder to ParseTraces without -fuzz.
func TestAppendRowsMatchesParseTraces(t *testing.T) {
	t.Parallel()
	for _, in := range rowSeeds(t) {
		checkRowsMatchTraces(t, in)
	}
	// A row is decoded from the canonical rendering of its trace.
	rows, err := AppendRows(nil, rowSeeds(t)[0])
	if err != nil || len(rows) != 1 || rows[0].TimeMs != 1234.5 || len(rows[0].Config) != 3 {
		t.Fatalf("AppendRows(canonical) = %+v, %v", rows, err)
	}
}

// FuzzAppendRows: the retrain's row decoder against ParseTraces, the
// decoder ingest runs, on arbitrary streams.
func FuzzAppendRows(f *testing.F) {
	for _, s := range rowSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkRowsMatchTraces)
}
