package perfsuite

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	rockhopper "github.com/rockhopper-db/rockhopper"
	"github.com/rockhopper-db/rockhopper/internal/embedding"
	"github.com/rockhopper-db/rockhopper/internal/eventlog"
	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
)

// gpDim is the design dimensionality of the GP benchmarks: the seven
// production parameters plus the input-size covariate.
const gpDim = 8

// walReplayRecords is how many WAL records the replay benchmark recovers
// per operation.
const walReplayRecords = 512

// decodeStreamEvents is how many task events the decode benchmark parses
// per operation (plus the execution-end record).
const decodeStreamEvents = 64

// Specs returns the pinned suite in its canonical order. Benchmark names
// are part of the report contract — Compare matches on them — so never
// rename an entry; add a new one and retire the old name instead. short
// drops the n=1024 GP sizes (the full fit there is the slowest entry by an
// order of magnitude), which is why CheckFloors exempts short reports from
// the n=1024 floor.
func Specs(short bool) []Spec {
	sizes := []int{64, 256, 1024}
	if short {
		sizes = []int{64, 256}
	}
	var specs []Spec
	for _, n := range sizes {
		specs = append(specs,
			Spec{Name: fmt.Sprintf("gp_fit_n%d", n), Fn: gpFitBench(n)},
			Spec{Name: fmt.Sprintf("gp_update_n%d", n), Fn: gpUpdateBench(n)},
		)
	}
	predN := sizes[len(sizes)-1]
	specs = append(specs,
		Spec{Name: fmt.Sprintf("gp_predict_n%d", predN), Fn: gpPredictBench(predN)},
		Spec{Name: "eventlog_encode", Fn: benchEventlogEncode},
		Spec{Name: "eventlog_decode", Fn: benchEventlogDecode},
		Spec{Name: "wal_append", Fn: benchWALAppend},
		Spec{Name: "wal_append_sync", Fn: benchWALAppendSync},
		Spec{Name: fmt.Sprintf("wal_batch_append_%d", walBatchEntries), Fn: benchWALBatchAppend},
		Spec{Name: "wal_replay", Fn: benchWALReplay},
		Spec{Name: "embedding_compute", Fn: benchEmbeddingCompute},
		Spec{Name: "tuner_iteration", Fn: benchTunerIteration},
	)
	return specs
}

// synthGPData generates a deterministic smooth-response design: points in
// the unit cube with a sinusoidal objective plus small noise, the same
// shape the surrogate sees from normalized Spark configurations.
func synthGPData(n int, seed uint64) (xs [][]float64, ys []float64) {
	rng := stats.NewRNG(seed)
	xs = make([][]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		x := make([]float64, gpDim)
		y := 0.0
		for j := range x {
			x[j] = rng.Float64()
			y += x[j] * float64(j+1)
		}
		xs[i] = x
		ys[i] = y + 0.01*rng.NormFloat64()
	}
	return xs, ys
}

// gpFitBench measures a full refit at size n: the O(n^3) baseline the
// incremental update is compared against.
func gpFitBench(n int) func(b *testing.B) {
	return func(b *testing.B) {
		xs, ys := synthGPData(n, uint64(n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := ml.NewGP()
			if err := g.Fit(xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// gpUpdateBench measures one incremental Observe at size n. ForgetLast
// (also O(n^2)) keeps the model at a constant size so every iteration
// measures the same work.
func gpUpdateBench(n int) func(b *testing.B) {
	return func(b *testing.B) {
		xs, ys := synthGPData(n, uint64(n))
		g := ml.NewGP()
		if err := g.Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
		q, yq := probePoint(uint64(n) + 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.Observe(q, yq); err != nil {
				b.Fatal(err)
			}
			if err := g.ForgetLast(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func gpPredictBench(n int) func(b *testing.B) {
	return func(b *testing.B) {
		xs, ys := synthGPData(n, uint64(n))
		g := ml.NewGP()
		if err := g.Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
		q, _ := probePoint(uint64(n) + 1)
		g.PredictVar(q) // warm the scratch buffers
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, v := g.PredictVar(q)
			sink += m + v
		}
		if sink == 0 {
			b.Fatal("prediction produced nothing")
		}
	}
}

func probePoint(seed uint64) ([]float64, float64) {
	rng := stats.NewRNG(seed)
	x := make([]float64, gpDim)
	y := 0.0
	for j := range x {
		x[j] = rng.Float64()
		y += x[j] * float64(j+1)
	}
	return x, y
}

// benchEventlogEncode measures appending one task-end record to a reused
// buffer — the per-task cost of streaming a run to the collector. The
// floor pins AllocsPerOp at zero.
func benchEventlogEncode(b *testing.B) {
	task := eventlog.Event{Event: eventlog.EventTaskEnd, ExecutionID: 42, StageLabel: "shuffle-7", TaskMs: 12.5}
	buf := make([]byte, 0, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = eventlog.AppendEvent(buf[:0], &task)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(buf) == 0 {
		b.Fatal("encode produced no bytes")
	}
}

// benchEventlogDecode measures parsing a stream of decodeStreamEvents task
// records plus the execution end. The decoder's intern table is warmed
// before the clock starts; steady state must be allocation-free.
func benchEventlogDecode(b *testing.B) {
	var data []byte
	for i := 0; i < decodeStreamEvents; i++ {
		ev := eventlog.Event{Event: eventlog.EventTaskEnd, ExecutionID: 7, StageLabel: fmt.Sprintf("stage-%d", i%8), TaskMs: 10 + float64(i)}
		var err error
		data, err = eventlog.AppendEvent(data, &ev)
		if err != nil {
			b.Fatal(err)
		}
		data = append(data, '\n')
	}
	end := eventlog.Event{Event: eventlog.EventExecutionEnd, ExecutionID: 7, DurationMs: 901.5}
	data, err := eventlog.AppendEvent(data, &end)
	if err != nil {
		b.Fatal(err)
	}
	data = append(data, '\n')

	d := eventlog.NewDecoder(data)
	var ev eventlog.Event
	for d.Next(&ev) == nil { // warm the intern table
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset(data)
		for {
			if err := d.Next(&ev); err != nil {
				break
			}
		}
	}
	if ev.DurationMs != 901.5 {
		b.Fatalf("decode drifted: %+v", ev)
	}
}

// benchWALAppend measures one acknowledged mutation on a durable store with
// fsync disabled, isolating the framing + write path from disk sync cost.
func benchWALAppend(b *testing.B) {
	dir, err := os.MkdirTemp("", "perfsuite-wal-append-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenDurable(dir, nil, store.DurableOptions{NoSync: true, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.PutInternal("bench/blob", data)
	}
}

// walBatchEntries is the group-commit batch size benchmarked against
// per-record appends.
const walBatchEntries = 512

// benchWALAppendSync measures one acknowledged mutation with the per-record
// fsync ON — the production durability cost one solo Put actually pays, and
// the baseline the group-commit amortization ratio divides by.
func benchWALAppendSync(b *testing.B) {
	dir, err := os.MkdirTemp("", "perfsuite-wal-append-sync-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenDurable(dir, nil, store.DurableOptions{CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.PutInternal("bench/blob", data)
	}
}

// benchWALBatchAppend measures one group commit of walBatchEntries entries
// with fsync ON — the store path behind POST /api/events/batch. One
// operation lands 512 mutations behind a single WAL record and a single
// fsync, so the dominant per-mutation cost (the sync) is amortized 512-way;
// the wal_batch_amortization_512 derived ratio pins that against
// wal_append_sync.
func benchWALBatchAppend(b *testing.B) {
	dir, err := os.MkdirTemp("", "perfsuite-wal-batch-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenDurable(dir, nil, store.DurableOptions{CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	entries := make([]store.BatchEntry, walBatchEntries)
	for i := range entries {
		entries[i] = store.BatchEntry{Path: fmt.Sprintf("bench/blob-%03d", i), Data: data}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.PutBatch(entries); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWALReplay measures cold recovery: each operation copies a prepared
// walReplayRecords-record log into a fresh directory, opens the store
// (replaying every record), and closes it.
func benchWALReplay(b *testing.B) {
	walBytes := prepareWAL(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayOnce(b, walBytes)
	}
}

// prepareWAL builds the log the replay benchmark recovers: open a store
// with compaction disabled, issue the mutations, and read the raw WAL
// back. The store is deliberately abandoned without Close — Close compacts,
// which would truncate the very log we want.
func prepareWAL(b *testing.B) []byte {
	dir, err := os.MkdirTemp("", "perfsuite-wal-prep-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenDurable(dir, nil, store.DurableOptions{NoSync: true, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 128)
	for i := 0; i < walReplayRecords; i++ {
		data[0] = byte(i)
		st.PutInternal(fmt.Sprintf("runs/%02d/model", i%16), data)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	if len(walBytes) == 0 {
		b.Fatal("prepared WAL is empty")
	}
	return walBytes
}

func replayOnce(b *testing.B, walBytes []byte) {
	dir, err := os.MkdirTemp("", "perfsuite-wal-replay-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), walBytes, 0o600); err != nil {
		b.Fatal(err)
	}
	st, err := store.OpenDurable(dir, nil, store.DurableOptions{NoSync: true, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.GetInternal("runs/00/model"); err != nil {
		b.Fatalf("replay lost data: %v", err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchEmbeddingCompute measures one full virtual-operator embedding of a
// benchmark plan — what the Embedding ETL pays per ingested run.
func benchEmbeddingCompute(b *testing.B) {
	q, err := rockhopper.NewBenchmarkQuery("tpcds", 7, 99)
	if err != nil {
		b.Fatal(err)
	}
	e := embedding.NewVirtual()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec := e.Embed(q.Plan)
		sink += vec[0]
	}
	_ = sink
}

// benchTunerIteration measures one end-to-end tuning step — Recommend, a
// simulated run, Report — the unit of work the service performs per
// recurring-query submission. Mirrors the library-level benchmark in the
// root package so CLI reports and `go test -bench` agree on what an
// iteration costs.
func benchTunerIteration(b *testing.B) {
	space := rockhopper.QuerySpace()
	engine := rockhopper.NewEngine(space)
	q, err := rockhopper.NewBenchmarkQuery("tpcds", 2, 99)
	if err != nil {
		b.Fatal(err)
	}
	tn, err := rockhopper.NewTuner(space, rockhopper.WithoutGuardrail())
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(1)
	size := q.Plan.LeafInputBytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := tn.Recommend(i, size)
		o := engine.Run(q, cfg, 1, r, nil)
		if err := tn.Report(o); err != nil {
			b.Fatal(err)
		}
	}
}
