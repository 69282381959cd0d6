package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/core"
	"github.com/rockhopper-db/rockhopper/internal/embedding"
	"github.com/rockhopper-db/rockhopper/internal/eventlog"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

const secret = "cluster-secret"

func newStack(t *testing.T, space *sparksim.Space) (*backend.Server, *Client) {
	t.Helper()
	st := store.New([]byte("signing-key"))
	srv := backend.New(space, st, secret, 1)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, New(hs.URL, secret)
}

func makeTraces(e *sparksim.Engine, q *sparksim.Query, n int, seed uint64) []flighting.Trace {
	r := stats.NewRNG(seed)
	emb := embedding.NewVirtual().Embed(q.Plan)
	out := make([]flighting.Trace, 0, n)
	for i := 0; i < n; i++ {
		cfg := e.Space.Random(r)
		o := e.Run(q, cfg, 1, r, noise.Low)
		out = append(out, flighting.Trace{
			QueryID: q.ID, Embedding: emb, Config: o.Config,
			DataSize: o.DataSize, TimeMs: o.Time,
		})
	}
	return out
}

func TestTokenCaching(t *testing.T) {
	_, c := newStack(t, sparksim.QuerySpace())
	t1, err := c.Token(context.Background(), "events/j/", store.PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.Token(context.Background(), "events/j/", store.PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("token should be cached")
	}
	t3, err := c.Token(context.Background(), "events/j/", store.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Fatal("different permissions must use different tokens")
	}
}

// TestTokenCacheEvictsExpired: every job posts under its own events/<job>/
// prefix, so cache keys never repeat. Inserting a refreshed token must drop
// the entries that have expired, or the map grows by one per job forever.
func TestTokenCacheEvictsExpired(t *testing.T) {
	srv, c := newStack(t, sparksim.QuerySpace())
	clock := harden(c)
	ctx := context.Background()
	const jobs = 50
	for j := 0; j < jobs; j++ {
		if _, err := c.Token(ctx, fmt.Sprintf("events/job-%d/", j), store.PermWrite); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.tokens); got != jobs {
		t.Fatalf("%d live tokens cached; want %d (nothing has expired yet)", got, jobs)
	}
	clock.Advance(srv.TokenTTL)
	if _, err := c.Token(ctx, "events/job-next/", store.PermWrite); err != nil {
		t.Fatal(err)
	}
	if got := len(c.tokens); got != 1 {
		t.Fatalf("%d tokens cached after every earlier one expired; want 1", got)
	}
}

func TestAuthRejected(t *testing.T) {
	srv, _ := newStack(t, sparksim.QuerySpace())
	_ = srv
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	bad := New(hs.URL, "wrong-secret")
	if _, err := bad.Token(context.Background(), "events/", store.PermRead); err == nil {
		t.Fatal("wrong cluster secret should be rejected")
	}
}

func TestObjectRoundTrip(t *testing.T) {
	srv, c := newStack(t, sparksim.QuerySpace())
	if err := srv.Store.Commit(context.Background(), []store.Entry{{Path: "artifacts/a1/notes.txt", Data: []byte("hi")}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetObject(context.Background(), "artifacts/a1/notes.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hi" {
		t.Fatalf("got %q", got)
	}
}

// TestGetObjectBoundedRead: the object body is read into a buffer sized from
// Content-Length, and a response larger than the limit — declared or not —
// is an error before it is memory.
func TestGetObjectBoundedRead(t *testing.T) {
	srv, c := newStack(t, sparksim.QuerySpace())
	big := bytes.Repeat([]byte("rockhopper"), 10<<10) // far past the 2 KB a server may send unchunked by default
	if err := srv.Store.Commit(context.Background(), []store.Entry{{Path: "artifacts/a1/big.bin", Data: big}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetObject(context.Background(), "artifacts/a1/big.bin")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("GetObject: %d bytes, err %v; want %d bytes", len(got), err, len(big))
	}

	const limit = 1 << 10
	resp := func(declared int64, n int) *http.Response {
		return &http.Response{ContentLength: declared, Body: io.NopCloser(bytes.NewReader(make([]byte, n)))}
	}
	read := func(declared int64) func() {
		return func() {
			if _, err := readObject(resp(declared, len(big)), int64(len(big))); err != nil {
				t.Error(err)
			}
		}
	}
	if sized, grown := testing.AllocsPerRun(10, read(int64(len(big)))), testing.AllocsPerRun(10, read(-1)); sized >= grown {
		t.Fatalf("a declared length costs %v allocations, an undeclared one %v: the buffer is not presized", sized, grown)
	}
	if b, err := readObject(resp(limit, limit), limit); err != nil || len(b) != limit {
		t.Fatalf("object of exactly the limit: %d bytes, err %v", len(b), err)
	}
	if _, err := readObject(resp(limit+1, limit+1), limit); err == nil {
		t.Fatal("declared oversize object was accepted")
	}
	if _, err := readObject(resp(-1, 64*limit), limit); err == nil {
		t.Fatal("undeclared (chunked) oversize object was accepted")
	}
	if _, err := readObject(resp(8, 64*limit), limit); err == nil {
		t.Fatal("oversize object behind a small declared length was accepted")
	}
}

func TestEventsTrainModelEndToEnd(t *testing.T) {
	space := sparksim.QuerySpace()
	srv, c := newStack(t, space)
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(1).Query(workloads.TPCDS, 2)

	// No model yet: FetchModel reports a clean miss.
	m, err := c.FetchModel(context.Background(), "u1", q.ID)
	if err != nil || m != nil {
		t.Fatalf("expected clean miss, got %v, %v", m, err)
	}

	traces := makeTraces(e, q, 60, 7)
	if err := c.PostEvents(context.Background(), "u1", q.ID, "job-1", traces); err != nil {
		t.Fatal(err)
	}
	srv.Flush()

	m, err = c.FetchModel(context.Background(), "u1", q.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("model should exist after event ingestion")
	}
	// The trained model must rank a terrible config above a good one.
	good, _ := e.OptimalConfig(q, 1, 10)
	bad := space.With(space.Default(), sparksim.ShufflePartitions, 8)
	bad = space.With(bad, sparksim.MaxPartitionBytes, 1<<20)
	size := q.Plan.LeafInputBytes()
	gp := m.Predict(featuresFor(space, good, size))
	bp := m.Predict(featuresFor(space, bad, size))
	if gp >= bp {
		t.Fatalf("backend-trained model cannot rank configs: good=%g bad=%g", gp, bp)
	}
}

func TestModelPrivacyPerUser(t *testing.T) {
	// Models are namespaced by user: u2 must not see u1's model.
	space := sparksim.QuerySpace()
	srv, c := newStack(t, space)
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(1).Query(workloads.TPCDS, 3)
	if err := c.PostEvents(context.Background(), "u1", q.ID, "job-9", makeTraces(e, q, 30, 9)); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	if m, _ := c.FetchModel(context.Background(), "u2", q.ID); m != nil {
		t.Fatal("cross-user model leak")
	}
	if m, _ := c.FetchModel(context.Background(), "u1", q.ID); m == nil {
		t.Fatal("owner cannot load model")
	}
}

func TestAppCacheFlow(t *testing.T) {
	space := sparksim.FullSpace()
	_, c := newStack(t, space)
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(2).Query(workloads.TPCDS, 5)

	if _, ok, err := c.FetchAppCache(context.Background(), "artifact-x"); err != nil || ok {
		t.Fatalf("empty cache should miss cleanly: %v %v", ok, err)
	}

	r := stats.NewRNG(11)
	var obs []sparksim.Observation
	for i := 0; i < 30; i++ {
		obs = append(obs, e.Run(q, space.Random(r), 1, r, nil))
	}
	entry, err := c.ComputeAppCache(context.Background(), backend.AppCacheRequest{
		ArtifactID: "artifact-x",
		Current:    space.Default(),
		Queries:    []backend.QueryHistory{{ID: q.ID, Centroid: space.Default(), Observations: obs}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entry.Config) != space.Dim() {
		t.Fatalf("cache entry config dim %d", len(entry.Config))
	}
	got, ok, err := c.FetchAppCache(context.Background(), "artifact-x")
	if err != nil || !ok {
		t.Fatalf("cache should hit: %v %v", ok, err)
	}
	if got.Runs != 1 {
		t.Fatalf("runs = %d", got.Runs)
	}
}

func TestRemoteSelectorFallsBack(t *testing.T) {
	space := sparksim.QuerySpace()
	_, c := newStack(t, space)
	rs := &RemoteSelector{
		Client: c, Space: space, User: "u1", Signature: "never-trained",
		Fallback: core.RandomSelector{RNG: stats.NewRNG(5)},
	}
	cands := []sparksim.Config{space.Default(), space.Default()}
	if idx := rs.Select(cands, nil, 0); idx < 0 || idx > 1 {
		t.Fatalf("fallback select out of range: %d", idx)
	}
}

func TestRemoteSelectorUsesModel(t *testing.T) {
	space := sparksim.QuerySpace()
	srv, c := newStack(t, space)
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(1).Query(workloads.TPCDS, 2)
	if err := c.PostEvents(context.Background(), "u1", q.ID, "job-2", makeTraces(e, q, 60, 13)); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	rs := &RemoteSelector{
		Client: c, Space: space, User: "u1", Signature: q.ID,
		Fallback: core.RandomSelector{RNG: stats.NewRNG(5)},
	}
	good, _ := e.OptimalConfig(q, 1, 10)
	bad := space.With(space.Default(), sparksim.ShufflePartitions, 8)
	bad = space.With(bad, sparksim.MaxPartitionBytes, 1<<20)
	hits := 0
	for i := 0; i < 5; i++ {
		if rs.Select([]sparksim.Config{bad, good}, nil, q.Plan.LeafInputBytes()) == 1 {
			hits++
		}
	}
	if hits != 5 {
		t.Fatalf("model-backed selector should deterministically pick the good config, got %d/5", hits)
	}
}

func featuresFor(space *sparksim.Space, cfg sparksim.Config, size float64) []float64 {
	return tuners.ConfigFeatures(space, nil, cfg, size)
}

// TestPostEventLogEndToEnd: a raw event log is digested on the client and
// posted as a batch; the backend trains a model under the signature derived
// from the plans, and a log that does not parse fails before any request.
func TestPostEventLogEndToEnd(t *testing.T) {
	space := sparksim.QuerySpace()
	srv, c := newStack(t, space)
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(1).Query(workloads.TPCDS, 2)
	sig := sparksim.Signature(q.Plan)

	var buf bytes.Buffer
	r := stats.NewRNG(21)
	for i := 0; i < 30; i++ {
		cfg := space.Random(r)
		o := e.Run(q, cfg, 1, r, noise.Low)
		o.Iteration = i
		stages, _ := e.Explain(q, cfg, 1)
		if err := eventlog.WriteRun(&buf, int64(i), space, q, o, stages, 3); err != nil {
			t.Fatal(err)
		}
	}
	traces, err := eventlog.Digest(buf.Bytes(), space)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PostEventBatch(context.Background(), "u1", "job-raw", traces); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	m, err := c.FetchModel(context.Background(), "u1", sig)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("raw event-log ingestion did not train a model")
	}
	if _, err := eventlog.Digest([]byte("garbage"), space); err == nil {
		t.Fatal("garbage event log should be rejected")
	}
}

// TestIngestPostsReuseConnections: every ingest post reads its 202 body, so
// its keep-alive connection goes back to the pool. A post that closed the
// body unread would dial a new connection per call.
func TestIngestPostsReuseConnections(t *testing.T) {
	space := sparksim.QuerySpace()
	srv := backend.New(space, store.New([]byte("signing-key")), secret, 1)
	var dials atomic.Int64
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(func() { hs.Close(); srv.Close() })
	c := New(hs.URL, secret)
	c.HTTP = &http.Client{Transport: &http.Transport{}}
	t.Cleanup(c.HTTP.CloseIdleConnections)

	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(1).Query(workloads.TPCDS, 2)
	traces := makeTraces(e, q, 2, 5)
	ctx := context.Background()
	posts := []struct {
		name string
		post func() error
	}{
		{"PostEvents", func() error { return c.PostEvents(ctx, "u", q.ID, "j", traces[:1]) }},
		{"PostEventBatch", func() error { _, err := c.PostEventBatch(ctx, "u", "j", traces); return err }},
	}
	// Warm up: fetch the write token and open the pooled connection.
	for _, p := range posts {
		if err := p.post(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
	}
	for _, p := range posts {
		before := dials.Load()
		for i := 0; i < 20; i++ {
			if err := p.post(); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
		if n := dials.Load() - before; n > 1 {
			t.Errorf("20 calls of %s opened %d new connections; want at most 1", p.name, n)
		}
	}
}
