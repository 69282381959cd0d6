package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/eventlog"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

// rawEventLog simulates a few executions of one query and serializes them as
// a raw Spark listener event log.
func rawEventLog(t *testing.T) []byte {
	t.Helper()
	space := sparksim.QuerySpace()
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(3).Query(workloads.TPCDS, 2)
	r := stats.NewRNG(5)
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		cfg := space.Random(r)
		o := e.Run(q, cfg, 1, r, noise.Low)
		o.Iteration = i
		stages, _ := e.Explain(q, cfg, 1)
		if err := eventlog.WriteRun(&buf, int64(i), space, q, o, stages, 4); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestServerConcurrentStress drives every handler the production loop touches
// — token issue, event ingest, model/object serving, and app-cache compute —
// from many goroutines at once. Run under -race it checks the Server's shared
// state (rng, sequence allocator, updater queue); the event-file count at the
// end catches the classic lost update where two ingests pick the same
// sequence number and one overwrites the other.
func TestServerConcurrentStress(t *testing.T) {
	t.Parallel()
	srv, hs := newServer(t)
	space := sparksim.QuerySpace()
	if err := srv.Store.Commit(context.Background(), []store.Entry{{Path: "models/u/warm.model", Data: []byte("blob")}}); err != nil {
		t.Fatal(err)
	}

	var tracesBuf bytes.Buffer
	if err := flighting.WriteTraces(&tracesBuf, []flighting.Trace{{
		QueryID: "s", Config: space.Default(), DataSize: 1e9, TimeMs: 1000,
	}}); err != nil {
		t.Fatal(err)
	}
	payload := tracesBuf.Bytes()

	var obs []sparksim.Observation
	for i := 0; i < 8; i++ {
		cfg := space.With(space.Default(), sparksim.ShufflePartitions, float64(100+10*i))
		obs = append(obs, sparksim.Observation{Config: cfg, DataSize: 1e9, Time: float64(1000 + i)})
	}
	appReq, err := json.Marshal(AppCacheRequest{
		ArtifactID: "a", Current: space.Default(),
		Queries: []QueryHistory{{ID: "q", Centroid: space.Default(), Observations: obs}},
	})
	if err != nil {
		t.Fatal(err)
	}

	writeTok := srv.Store.Sign("events/", store.PermWrite, srv.TokenTTL)
	readTok := srv.Store.Sign("models/", store.PermRead, srv.TokenTTL)

	const goroutines, iters = 8, 6
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	do := func(req *http.Request, wantStatus int, what string) error {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return fmt.Errorf("%s: %v", what, err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			return fmt.Errorf("%s: status %d, want %d", what, resp.StatusCode, wantStatus)
		}
		return nil
	}
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Token issue.
				body, _ := json.Marshal(TokenRequest{Prefix: "events/", Perm: store.PermWrite})
				req, _ := http.NewRequest("POST", hs.URL+"/api/token", bytes.NewReader(body))
				req.Header.Set(ClusterTokenHeader, secret)
				if err := do(req, http.StatusOK, "token"); err != nil {
					errs <- err
					return
				}
				// Event ingest: all goroutines share one job, contending on
				// the sequence allocator.
				url := fmt.Sprintf("%s/api/events?user=u&signature=sig%d&job_id=shared", hs.URL, g%3)
				req, _ = http.NewRequest("POST", url, bytes.NewReader(payload))
				req.Header.Set(SASTokenHeader, writeTok)
				if err := do(req, http.StatusAccepted, "events"); err != nil {
					errs <- err
					return
				}
				// Model serve.
				req, _ = http.NewRequest("GET", hs.URL+"/api/object?path=models/u/warm.model", nil)
				req.Header.Set(SASTokenHeader, readTok)
				if err := do(req, http.StatusOK, "object"); err != nil {
					errs <- err
					return
				}
				// App-cache compute exercises the server's shared RNG; the
				// query-level space has no app params, so 422 is the
				// expected (fully processed) outcome.
				req, _ = http.NewRequest("POST", hs.URL+"/api/appcache", bytes.NewReader(appReq))
				req.Header.Set(ClusterTokenHeader, secret)
				if err := do(req, http.StatusUnprocessableEntity, "appcache"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	srv.Flush()
	if n := len(srv.Store.List("events/shared/")); n != goroutines*iters {
		t.Fatalf("event files = %d, want %d (concurrent ingests lost updates)", n, goroutines*iters)
	}
}

// TestEventLogConcurrentIngest posts raw event logs concurrently; each log
// fans out into per-signature event files through the same sequence
// allocator.
func TestEventLogConcurrentIngest(t *testing.T) {
	t.Parallel()
	srv, hs := newServer(t)
	logBlob := rawEventLog(t)
	writeTok := srv.Store.Sign("events/", store.PermWrite, srv.TokenTTL)

	const goroutines = 6
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest("POST", hs.URL+"/api/eventlog?user=u&job_id=logjob", bytes.NewReader(logBlob))
			req.Header.Set(SASTokenHeader, writeTok)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("eventlog: status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	srv.Flush()
	if n := len(srv.Store.List("events/logjob/")); n != goroutines {
		t.Fatalf("event files = %d, want %d", n, goroutines)
	}
}
