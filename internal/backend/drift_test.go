package backend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/embedding"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

// recurringBatch runs one fixed, recurring config set (a production
// signature re-executes the same tuner-proposed neighborhood run after run)
// with fresh execution noise per runSeed. Against a recurring workload the
// serving model interpolates, so residuals measure noise and drift — not
// the generalization error that random unseen configs would inject.
func recurringBatch(n int, runSeed uint64) []flighting.Trace {
	space := sparksim.QuerySpace()
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(7).Query(workloads.TPCDS, 2)
	cfgRNG := stats.NewRNG(99)
	cfgs := make([]sparksim.Config, n)
	for i := range cfgs {
		cfgs[i] = space.Random(cfgRNG)
	}
	r := stats.NewRNG(runSeed)
	out := make([]flighting.Trace, 0, n)
	for i := 0; i < n; i++ {
		o := e.Run(q, cfgs[i], 1, r, noise.Low)
		out = append(out, flighting.Trace{QueryID: "s", Config: o.Config, DataSize: o.DataSize, TimeMs: o.Time})
	}
	return out
}

// postDriftBatch ships one explicit trace batch for u/s under the given job ID
// and waits for the retrain it triggers.
func postDriftBatch(t *testing.T, srv *Server, hs string, jobID string, traces []flighting.Trace) {
	t.Helper()
	tok := srv.Store.Sign("events/", store.PermWrite, srv.TokenTTL)
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, traces); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", hs+"/api/events?user=u&signature=s&job_id="+jobID, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SASTokenHeader, tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	srv.Flush()
}

// explain reads GET /api/explain for user/signature: the status code and,
// on 200, the decoded state.
func explain(t *testing.T, url, user, signature string) (int, SignatureState) {
	t.Helper()
	resp, err := http.Get(url + "/api/explain?user=" + user + "&signature=" + signature)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SignatureState
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("explain body: %v", err)
		}
	}
	return resp.StatusCode, st
}

// driftState reads u/s's drift fields through /api/explain.
func driftState(t *testing.T, url string) (drifting bool, score float64) {
	t.Helper()
	code, st := explain(t, url, "u", "s")
	if code != http.StatusOK {
		t.Fatalf("explain u/s: status %d, want 200", code)
	}
	return st.Drifting, st.DriftScore
}

// TestDriftTripsOnCostShift is the end-to-end tuning-health drill: a
// stationary signature must report drifting=false on /api/explain through
// repeated retrains (zero false positives), and an injected simulator cost
// shift — every run 60% slower than the serving model's world — must trip
// it within 20 shifted runs, raising rockhopper_signature_drift_trips_total
// by exactly one.
func TestDriftTripsOnCostShift(t *testing.T) {
	srv, hs := newServer(t)

	// Batch A fits the first serving model; there is no model to score
	// against yet, so its traces are consumed unscored.
	postDriftBatch(t, srv, hs.URL, "ja", recurringBatch(8, 1))

	// Batch B is drawn from the same stationary workload: its residuals
	// against the batch-A model are the detector's baseline. No drift.
	postDriftBatch(t, srv, hs.URL, "jb", recurringBatch(8, 2))
	if drifting, score := driftState(t, hs.URL); drifting {
		t.Fatalf("stationary signature reports drift (score %.3f) — false positive", score)
	}
	if got := srv.tele.driftTrips.Value(); got != 0 {
		t.Fatalf("stationary drift trips = %v, want 0", got)
	}

	// Batch C injects the cost shift: the same configs now run 60% slower
	// than the world the serving model was fit on.
	shifted := recurringBatch(16, 3)
	if len(shifted) > 20 {
		t.Fatalf("drill uses %d shifted runs, acceptance bound is 20", len(shifted))
	}
	for i := range shifted {
		shifted[i].TimeMs *= 1.6
	}
	postDriftBatch(t, srv, hs.URL, "jc", shifted)

	drifting, score := driftState(t, hs.URL)
	if !drifting {
		t.Fatalf("injected 1.6x cost shift did not trip drift within %d runs (score %.3f)", len(shifted), score)
	}
	if score <= 0 {
		t.Errorf("tripped detector exports score %.3f, want > 0", score)
	}
	if got := srv.tele.driftTrips.Value(); got != 1 {
		t.Errorf("drift trips = %v after the shift, want 1", got)
	}

	// The detector latches: a later batch back on the old costs leaves it
	// tripped and does not count the incident again.
	postDriftBatch(t, srv, hs.URL, "jd", recurringBatch(8, 4))
	if drifting, _ := driftState(t, hs.URL); !drifting {
		t.Error("drift state cleared without a Reset")
	}
	fams := scrape(t, hs.URL)
	trips, ok := telemetry.Find(fams, "rockhopper_signature_drift_trips_total")
	if !ok || len(trips.Series) != 1 || trips.Series[0].Value != 1 {
		t.Errorf("scraped drift trips = %+v, want one unlabeled series at 1", trips)
	}
}

// TestDriftStationarySignaturesStayClean retrains one signature repeatedly
// on fresh draws from an unchanged workload — the detector sees a long
// residual stream and must never trip.
func TestDriftStationarySignaturesStayClean(t *testing.T) {
	srv, hs := newServer(t)
	jobs := []string{"j0", "j1", "j2", "j3", "j4"}
	for i, j := range jobs {
		postDriftBatch(t, srv, hs.URL, j, recurringBatch(8, uint64(10+i)))
		if drifting, score := driftState(t, hs.URL); drifting {
			t.Fatalf("stationary retrain %d tripped drift (score %.3f)", i+1, score)
		}
	}
	if _, st := explain(t, hs.URL, "u", "s"); st.DriftSamples == 0 {
		t.Error("stationary drill scored no residuals; the detector was never fed")
	}
	if got := srv.tele.driftTrips.Value(); got != 0 {
		t.Fatalf("stationary drift trips = %v, want 0", got)
	}
}

// TestDriftCursorSkipsFittedRowsAfterRestart: the detector is not
// persisted, so a restarted node's first pass must not score the rows the
// serving model was fitted on as if they were new. 16 traces train the
// model; after a restart one more trace arrives, and it is the only
// out-of-sample residual.
func TestDriftCursorSkipsFittedRowsAfterRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	open := func() (*Server, *httptest.Server, *store.DurableStore) {
		st, err := store.OpenDurable(dir, []byte("key"), store.DurableOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(sparksim.QuerySpace(), st, secret, 1)
		return srv, httptest.NewServer(srv.Handler()), st
	}
	srv, hs, st := open()
	postDriftBatch(t, srv, hs.URL, "j1", recurringBatch(16, 1))
	if st, _ := srv.Explain("u", "s"); st.Status != "ok" || st.Rows != 16 {
		t.Fatalf("before the restart: %+v, want a model over 16 rows", st)
	}
	hs.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv, hs, st = open()
	t.Cleanup(func() { hs.Close(); srv.Close(); st.Close() })
	postDriftBatch(t, srv, hs.URL, "j2", recurringBatch(1, 2))
	got, ok := srv.Explain("u", "s")
	if !ok || got.Rows != 17 || got.DriftSamples != 1 {
		t.Fatalf("after the restart and one trace: %+v, %v; want 1 drift sample over 17 rows", got, ok)
	}
}

// TestEmbeddingNeverChangesTheModel: the retrain fits on configuration,
// input size and time only. The same runs posted with and without their
// plan's virtual-operator embedding must give byte-identical models and the
// same drift state, pass after pass, through a cost shift that trips the
// detector.
func TestEmbeddingNeverChangesTheModel(t *testing.T) {
	plain, plainHS := newServer(t)
	embedded, embeddedHS := newServer(t)
	emb := embedding.NewVirtual().Embed(workloads.NewGenerator(7).Query(workloads.TPCDS, 2).Plan)
	if len(emb) != 101 {
		t.Fatalf("virtual embedding has %d floats, want 101", len(emb))
	}
	shifted := recurringBatch(16, 3)
	for i := range shifted {
		shifted[i].TimeMs *= 1.6
	}
	for i, batch := range [][]flighting.Trace{recurringBatch(8, 1), recurringBatch(8, 2), shifted} {
		withEmb := append([]flighting.Trace(nil), batch...)
		for j := range withEmb {
			withEmb[j].Embedding = emb
		}
		job := fmt.Sprintf("j%d", i)
		postDriftBatch(t, plain, plainHS.URL, job, batch)
		postDriftBatch(t, embedded, embeddedHS.URL, job, withEmb)

		want, err := plain.Store.GetInternal(store.ModelPath("u", "s"))
		if err != nil {
			t.Fatalf("batch %d: plain model: %v", i, err)
		}
		got, err := embedded.Store.GetInternal(store.ModelPath("u", "s"))
		if err != nil {
			t.Fatalf("batch %d: embedded model: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("batch %d: model fitted on embedded runs differs (%d vs %d bytes)", i, len(got), len(want))
		}
		_, ws := explain(t, plainHS.URL, "u", "s")
		_, gs := explain(t, embeddedHS.URL, "u", "s")
		if gs.DriftScore != ws.DriftScore || gs.Drifting != ws.Drifting || gs.DriftSamples != ws.DriftSamples || gs.Rows != ws.Rows {
			t.Fatalf("batch %d: explain with embeddings %+v, without %+v", i, gs, ws)
		}
	}
	if _, st := explain(t, plainHS.URL, "u", "s"); !st.Drifting {
		t.Fatalf("the shifted batch did not trip drift (%+v): the drift fields were not exercised", st)
	}
}
