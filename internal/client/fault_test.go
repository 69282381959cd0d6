package client

import (
	"bytes"
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/core"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/resilience/faultinject"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

// harden configures a client for deterministic fault tests: fake clock (no
// real backoff sleeps), seeded jitter.
func harden(c *Client) *resilience.FakeClock {
	clock := resilience.NewFakeClock(time.Unix(0, 0))
	c.Clock = clock
	c.SeedJitter(1)
	return clock
}

func TestRetriesAbsorbTransientNetworkFaults(t *testing.T) {
	space := sparksim.QuerySpace()
	st := store.New([]byte("key"))
	srv := backend.New(space, st, secret, 1)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	// Every third transport attempt dies. With retries, every logical call
	// must still succeed and every event file must land exactly once.
	ft := &faultinject.Transport{Plan: &faultinject.Script{Fail: alternating(90, 3)}}
	c := New(hs.URL, secret)
	c.HTTP = &http.Client{Transport: ft}
	harden(c)
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(1).Query(workloads.TPCDS, 2)
	r := stats.NewRNG(2)

	for i := 0; i < 30; i++ {
		o := e.Run(q, space.Random(r), 1, r, nil)
		err := c.PostEvents(context.Background(), "u1", q.ID, "job-flaky", []flighting.Trace{{
			QueryID: q.ID, Config: o.Config, DataSize: o.DataSize, TimeMs: o.Time,
		}})
		if err != nil {
			t.Fatalf("call %d failed despite retries: %v", i, err)
		}
	}
	if ft.Attempts.Load() <= ft.Forwarded.Load() {
		t.Fatal("fault injection did not fire")
	}
	srv.Flush()
	if n := len(st.List("events/job-flaky/")); n != 30 {
		t.Fatalf("persisted %d event files, expected 30", n)
	}
}

// alternating marks every k-th of n ops as a fault.
func alternating(n, k int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = (i+1)%k == 0
	}
	return out
}

func TestTerminalErrorsAreNotRetried(t *testing.T) {
	srv, _ := newStack(t, sparksim.QuerySpace())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	ft := &faultinject.Transport{}
	bad := New(hs.URL, "wrong-secret")
	bad.HTTP = &http.Client{Transport: ft}
	harden(bad)
	if _, err := bad.Token(context.Background(), "events/", store.PermRead); err == nil {
		t.Fatal("wrong cluster secret should be rejected")
	}
	if n := ft.Attempts.Load(); n != 1 {
		t.Fatalf("a 401 is terminal and must not be retried, saw %d attempts", n)
	}
}

func TestRemoteSelectorFallsBackOnNetworkFault(t *testing.T) {
	space := sparksim.QuerySpace()
	// A backend that is entirely unreachable.
	c := New("http://127.0.0.1:1", secret)
	harden(c)
	rs := &RemoteSelector{
		Client: c, Space: space, User: "u", Signature: "s",
		Fallback: core.RandomSelector{RNG: stats.NewRNG(1)},
	}
	cands := []sparksim.Config{space.Default(), space.Default()}
	if idx := rs.Select(cands, nil, 0); idx < 0 || idx >= len(cands) {
		t.Fatalf("selector must fall back when the backend is down, got %d", idx)
	}
	if !rs.Degraded() {
		t.Fatal("a transport failure is not a cold start; the selector must report degradation")
	}
}

func TestSessionCompleteSurfacesBackendErrors(t *testing.T) {
	space := sparksim.QuerySpace()
	q := workloads.NewGenerator(1).Query(workloads.TPCDS, 2)
	c := New("http://127.0.0.1:1", secret) // unreachable
	harden(c)
	sess, err := NewSession(c, space, "u", "j", q.Plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sess.Recommend(1e9)
	err = sess.Complete(context.Background(), sparksim.Observation{Config: cfg, DataSize: 1e9, Time: 100}, nil)
	if err == nil {
		t.Fatal("Complete must surface the event-shipping failure")
	}
	// Local state still advanced: tuning continues even when the backend is
	// down (production clients degrade to local-only tuning).
	if sess.Iterations() != 1 || sess.Dashboard().Len() != 1 {
		t.Fatal("local state should advance despite backend failure")
	}
}

// TestFetchModelDistinguishesMissingFromFailure is the regression test for
// the silent-degradation bug: a 404 (not trained yet) returns (nil, nil),
// while a backend store failure (500) must surface as a real error instead
// of being conflated with a cold start.
func TestFetchModelDistinguishesMissingFromFailure(t *testing.T) {
	space := sparksim.QuerySpace()
	st := store.New([]byte("key"))
	faulty := &faultinject.Store{Inner: st}
	srv := backend.New(space, st, secret, 1)
	srv.Store = faulty
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	c := New(hs.URL, secret)
	c.Retry.MaxAttempts = 2
	harden(c)

	// Healthy store, missing model: a clean cold-start miss.
	m, err := c.FetchModel(context.Background(), "u1", "never-trained")
	if err != nil || m != nil {
		t.Fatalf("missing model must be (nil, nil), got %v, %v", m, err)
	}

	// Broken store: every Get fails server-side. This must NOT look like a
	// cold start.
	faulty.Plan = &faultinject.ForOps{
		Plan: &faultinject.Rate{P: 1, RNG: stats.NewRNG(1)},
		Ops:  []string{"store.Get"},
	}
	m, err = c.FetchModel(context.Background(), "u1", "never-trained")
	if err == nil {
		t.Fatal("store failure was silently conflated with a missing model")
	}
	if m != nil {
		t.Fatal("no model should be returned on failure")
	}
	if resilience.StatusOf(err) != http.StatusInternalServerError {
		t.Fatalf("expected HTTP 500 in error chain, got %v", err)
	}

	// And an auth failure is equally loud: fresh client, bad secret. The
	// token fetch itself is rejected before the object is ever requested.
	bad := New(hs.URL, "wrong-secret")
	harden(bad)
	if _, err := bad.FetchModel(context.Background(), "u1", "never-trained"); err == nil {
		t.Fatal("auth rejection was silently conflated with a missing model")
	}
}

// TestForeignModelBlobDegradesThenRecovers: the model codec has one format
// and no legacy read path, because a model is derived data. A stored blob in
// any other format (here: what an older build's gob encoder wrote) must cost
// exactly one degradation episode — the client counts an "error" fallback,
// the updater's drift check logs and skips — and the next ingest's retrain
// must overwrite it so both sides recover on their own.
func TestForeignModelBlobDegradesThenRecovers(t *testing.T) {
	space := sparksim.QuerySpace()
	srv, c := newStack(t, space)
	var logs bytes.Buffer
	srv.Logger = log.New(&logs, "", 0)
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(1).Query(workloads.TPCDS, 2)
	ctx := context.Background()
	rs := &RemoteSelector{
		Client: c, Space: space, User: "u1", Signature: q.ID,
		Fallback: core.RandomSelector{RNG: stats.NewRNG(5)},
	}
	cands := []sparksim.Config{space.Default(), space.Random(stats.NewRNG(6))}
	size := q.Plan.LeafInputBytes()

	if err := c.PostEvents(ctx, "u1", q.ID, "job-1", makeTraces(e, q, 30, 7)); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	rs.Select(cands, nil, size)
	if rs.Degraded() {
		t.Fatal("a freshly trained model must be served remotely")
	}

	foreign := []byte("\x28\xff\x87\x03\x01\x01\x08envelope\x01\xff\x88\x00\x01\x02\x01\x04Kind")
	if err := srv.Store.Commit(ctx, []store.Entry{{Path: store.ModelPath("u1", q.ID), Data: foreign}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchModel(ctx, "u1", q.ID); !errors.Is(err, ml.ErrFormat) {
		t.Fatalf("FetchModel on a foreign blob = %v; want ml.ErrFormat", err)
	}
	before := c.tele().fallbacks.With(fallbackError).Value()
	if idx := rs.Select(cands, nil, size); idx < 0 || idx >= len(cands) {
		t.Fatalf("fallback selected %d", idx)
	}
	if !rs.Degraded() || c.tele().fallbacks.With(fallbackError).Value() != before+1 {
		t.Fatal("an unreadable model must take the error fallback, not pass for a cold start")
	}

	if err := c.PostEvents(ctx, "u1", q.ID, "job-2", makeTraces(e, q, 10, 8)); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	if !strings.Contains(logs.String(), "stored model unreadable") {
		t.Fatalf("the drift check did not log the unreadable model; server log:\n%s", logs.String())
	}
	if m, err := c.FetchModel(ctx, "u1", q.ID); err != nil || m == nil {
		t.Fatalf("the retrain did not replace the foreign blob: %v, %v", m, err)
	}
	rs.Select(cands, nil, size)
	if rs.Degraded() {
		t.Fatal("selector still degraded after the retrain rewrote the model")
	}
}
