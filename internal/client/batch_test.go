package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

// batchTraces builds n traces round-robin across the given signatures.
func batchTraces(t *testing.T, space *sparksim.Space, sigs []string, n int) []flighting.Trace {
	t.Helper()
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(7).Query(workloads.TPCDS, 2)
	out := makeTraces(e, q, n, 7)
	for i := range out {
		out[i].QueryID = sigs[i%len(sigs)]
	}
	return out
}

func TestPostEventBatch(t *testing.T) {
	space := sparksim.QuerySpace()
	srv, c := newStack(t, space)
	traces := batchTraces(t, space, []string{"sigA", "sigB"}, 8)
	ack, err := c.PostEventBatch(context.Background(), "u", "job1", traces)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Signatures != 2 || ack.Events != 8 {
		t.Fatalf("ack = %+v, want 2 signatures / 8 events", ack)
	}
	srv.Flush()
	for _, sig := range []string{"sigA", "sigB"} {
		if _, err := srv.Store.GetInternal(store.ModelPath("u", sig)); err != nil {
			t.Errorf("no model for %s after batch ingest: %v", sig, err)
		}
	}

	// Unsigned traces are rejected client-side, before any network call.
	bad := batchTraces(t, space, []string{"s"}, 2)
	bad[1].QueryID = ""
	if _, err := c.PostEventBatch(context.Background(), "u", "job1", bad); err == nil {
		t.Error("batch with an unsigned trace should fail client-side")
	}
	// An empty batch is a no-op, not an error.
	if _, err := c.PostEventBatch(context.Background(), "u", "job1", nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestPostEventBatchStatusClassification: a rejected batch surfaces the
// backend's status to the caller, and the retry policy decides from it
// alone: a shed (429) or a server fault (5xx) is retried up to the policy's
// attempt budget, while a request the backend refuses on its merits (other
// 4xx) is sent exactly once.
func TestPostEventBatchStatusClassification(t *testing.T) {
	space := sparksim.QuerySpace()
	traces := batchTraces(t, space, []string{"sigA", "sigB"}, 4)
	for _, tc := range []struct {
		status   int
		attempts int32
	}{
		{http.StatusBadRequest, 1},
		{http.StatusForbidden, 1},
		{http.StatusRequestEntityTooLarge, 1},
		{http.StatusTooManyRequests, resilience.DefaultMaxAttempts},
		{http.StatusInternalServerError, resilience.DefaultMaxAttempts},
		{http.StatusServiceUnavailable, resilience.DefaultMaxAttempts},
	} {
		t.Run(fmt.Sprint(tc.status), func(t *testing.T) {
			srv := backend.New(space, store.New([]byte("signing-key")), secret, 1)
			h := srv.Handler()
			var attempts atomic.Int32
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/events/batch" {
					attempts.Add(1)
					http.Error(w, "rejected by test", tc.status)
					return
				}
				h.ServeHTTP(w, r)
			}))
			t.Cleanup(func() { hs.Close(); srv.Close() })
			c := New(hs.URL, secret)
			harden(c)

			_, err := c.PostEventBatch(context.Background(), "u", "job1", traces)
			if got := resilience.StatusOf(err); got != tc.status {
				t.Fatalf("PostEventBatch error %v carries status %d, want %d", err, got, tc.status)
			}
			if got := attempts.Load(); got != tc.attempts {
				t.Fatalf("backend saw %d attempts, want %d", got, tc.attempts)
			}
		})
	}
}
