package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/eventlog"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/resilience/faultinject"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

func TestParseIndexEntry(t *testing.T) {
	cases := []struct {
		rest    string
		jobID   string
		seq     int
		wantErr bool
	}{
		{"job-1-000042", "job-1", 42, false},
		{"j-000000", "j", 0, false},
		// The %06d zero-padding overflows gracefully past 999999; parsing
		// must not corrupt the jobID or skip the entry.
		{"job-arch-1234567", "job-arch", 1234567, false},
		{"my-long-job-name-1000000", "my-long-job-name", 1000000, false},
		{"noseparator", "", 0, true},
		{"job-", "", 0, true},
		{"-42", "", 0, true},
		{"job-notanumber", "", 0, true},
	}
	for _, c := range cases {
		jobID, seq, err := parseIndexEntry(c.rest)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseIndexEntry(%q) should fail, got %q/%d", c.rest, jobID, seq)
			}
			continue
		}
		if err != nil || jobID != c.jobID || seq != c.seq {
			t.Errorf("parseIndexEntry(%q) = %q, %d, %v; want %q, %d", c.rest, jobID, seq, err, c.jobID, c.seq)
		}
	}
}

// traceBatch builds n valid training traces for one signature.
func traceBatch(n int, seed uint64) []flighting.Trace {
	space := sparksim.QuerySpace()
	e := sparksim.NewEngine(space)
	q := workloads.NewGenerator(seed).Query(workloads.TPCDS, 2)
	r := stats.NewRNG(seed)
	out := make([]flighting.Trace, 0, n)
	for i := 0; i < n; i++ {
		o := e.Run(q, space.Random(r), 1, r, noise.Low)
		out = append(out, flighting.Trace{QueryID: "s", Config: o.Config, DataSize: o.DataSize, TimeMs: o.Time})
	}
	return out
}

// TestRetrainSeqBeyondMillion is the regression test for the fixed-width
// index parsing bug: once a job exceeds 999999 event files the old
// "%06d"-strip corrupted jobID/seq and silently dropped the entry, so the
// model never saw that data.
func TestRetrainSeqBeyondMillion(t *testing.T) {
	srv, _ := newServer(t)
	const (
		user  = "u"
		sig   = "s"
		jobID = "job-big" // contains '-' on purpose
		seq   = 1234567
	)
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, traceBatch(8, 3)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Store.Commit(context.Background(), []store.Entry{
		{Path: store.EventPath(jobID, seq), Data: buf.Bytes()},
		{Path: signatureIndexPath(user, sig, jobID, seq)},
	}); err != nil {
		t.Fatal(err)
	}
	srv.retrain(updateJob{user: user, signature: sig})
	if _, err := srv.Store.GetInternal(store.ModelPath(user, sig)); err != nil {
		t.Fatalf("retrain dropped the seq=%d index entry: %v", seq, err)
	}
}

// TestRetrainSurfacesFailedModelWrite: a retrain whose model commit fails is
// not done. It must finish its span with status "error", log under the
// ingest's trace, leave no model behind, report "error" on /api/explain,
// and stay out of rockhopper_updater_retrains_total — the old PutInternal
// had no error slot and reported the retrain complete. A round's models
// share one commit, so when it fails every pass it carried fails with it.
func TestRetrainSurfacesFailedModelWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		sigs []string
	}{
		{"one signature", []string{"s"}},
		{"round of three", []string{"s1", "s2", "s3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newServer(t)
			var logs bytes.Buffer
			srv.Logger = log.New(&logs, "", 0)
			var buf bytes.Buffer
			if err := flighting.WriteTraces(&buf, traceBatch(8, 3)); err != nil {
				t.Fatal(err)
			}
			inner := srv.Store
			jobs := make([]updateJob, len(tc.sigs))
			for i, sig := range tc.sigs {
				if err := inner.Commit(context.Background(), []store.Entry{
					{Path: store.EventPath("j", i), Data: buf.Bytes()},
					{Path: signatureIndexPath("u", sig, "j", i)},
				}); err != nil {
					t.Fatal(err)
				}
				jobs[i] = updateJob{user: "u", signature: sig, trace: telemetry.SpanContext{TraceID: 0xfa11, SpanID: uint64(i + 1)}}
			}
			srv.Store = &faultinject.Store{
				Inner: inner,
				Plan:  &faultinject.ForOps{Plan: &faultinject.Script{Fail: []bool{true}}, Ops: []string{"store.Commit"}},
			}
			srv.retrain(jobs...)

			if got := srv.tele.retrains.Value(); got != 0 {
				t.Errorf("retrains_total = %v after a failed write, want 0", got)
			}
			if got := inner.List("models/"); len(got) != 0 {
				t.Errorf("models after a failed retrain commit: %v, want none", got)
			}
			for _, j := range jobs {
				if st, ok := srv.Explain("u", j.signature); !ok || st.Status != "error" || st.Rows != 8 || st.ModelBytes != 0 || st.RetrainedUnixMs != 0 {
					t.Errorf("explain %s after a failed commit = %+v, %v; want status error over 8 rows and no model", j.signature, st, ok)
				}
				if !strings.Contains(logs.String(), "[trace "+j.trace.String()+"] backend: persist retrain u/"+j.signature) {
					t.Errorf("%s: failure not logged under its trace: %q", j.signature, logs.String())
				}
			}
			// Each span carries its retrain's phases, on the failure path
			// too, so a slow or failed retrain says where its time went and
			// how many models shared its commit.
			spans := srv.tele.spans.Snapshot()
			if len(spans) != len(jobs) {
				t.Fatalf("%d retrain spans, want %d", len(spans), len(jobs))
			}
			phases := regexp.MustCompile(fmt.Sprintf(`^rows=8 read=\d+\.\d\dms fit=\d+\.\d\dms commit=\d+\.\d\dms round=%d$`, len(jobs)))
			for i, sp := range spans {
				if sp.Name != "retrain" || sp.Status != "error" {
					t.Errorf("retrain span %d = %+v, want one with status error", i, sp)
				}
				if notes := sp.Annotations; len(notes) != 2 || notes[0] != "u/"+jobs[i].signature || !phases.MatchString(notes[1]) {
					t.Errorf("retrain span annotations = %q, want the signature and one rows/read/fit/commit/round note", notes)
				}
			}

			// The store heals: the next round completes and counts.
			srv.retrain(jobs...)
			if got := srv.tele.retrains.Value(); got != float64(len(jobs)) {
				t.Errorf("retrains_total = %v after the healed round, want %d", got, len(jobs))
			}
			for _, j := range jobs {
				if st, _ := srv.Explain("u", j.signature); st.Status != "ok" || st.ModelBytes == 0 {
					t.Errorf("explain %s after the healed round = %+v, want status ok with the model's size", j.signature, st)
				}
			}
		})
	}
}

// rawTwoSigLog serializes three runs of each of two distinct queries, so its
// digest spans two signatures.
func rawTwoSigLog(t *testing.T) []byte {
	t.Helper()
	space := sparksim.QuerySpace()
	e := sparksim.NewEngine(space)
	gen := workloads.NewGenerator(3)
	r := stats.NewRNG(5)
	var buf bytes.Buffer
	id := int64(0)
	for _, qi := range []int{2, 7} {
		q := gen.Query(workloads.TPCDS, qi)
		for i := 0; i < 3; i++ {
			cfg := space.Random(r)
			o := e.Run(q, cfg, 1, r, noise.Low)
			o.Iteration = i
			stages, _ := e.Explain(q, cfg, 1)
			if err := eventlog.WriteRun(&buf, id, space, q, o, stages, 4); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	return buf.Bytes()
}

// twoSigDigest is rawTwoSigLog digested as a client digests a raw log: six
// traces keyed by two plan signatures.
func twoSigDigest(t *testing.T) []flighting.Trace {
	t.Helper()
	traces, err := eventlog.Digest(rawTwoSigLog(t), sparksim.QuerySpace())
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// TestEventBatchPartialIngestAtomicity is the regression test for the
// partial-ingest bug: a mid-loop store failure used to leave the first
// signature batch persisted+indexed+enqueued while returning a 5xx, so a
// retry double-ingested it. Now no index entry and no model update may be
// committed unless every batch write succeeded.
func TestEventBatchPartialIngestAtomicity(t *testing.T) {
	st := store.New([]byte("key"))
	srv := New(sparksim.QuerySpace(), st, secret, 1)
	t.Cleanup(srv.Close)
	// First store.Commit fails, everything after succeeds: the two signature
	// batches are one commit, so the fault takes both or neither.
	srv.Store = &faultinject.Store{
		Inner: st,
		Plan:  &faultinject.ForOps{Plan: &faultinject.FailN{N: 1}, Ops: []string{"store.Commit"}},
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	traces := twoSigDigest(t)
	code, _, err := postBatch(srv, hs.URL, "u", "j", traces)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 on injected store fault", code)
	}
	srv.Flush()
	if idx := st.List("index/"); len(idx) != 0 {
		t.Fatalf("partial ingest committed %d index entries: %v", len(idx), idx)
	}
	if models := st.List("models/"); len(models) != 0 {
		t.Fatalf("partial ingest trained models: %v", models)
	}

	// The client retries the whole batch; the store has healed. Exactly two
	// batches must now be indexed — no duplicates from the failed attempt.
	code, _, err = postBatch(srv, hs.URL, "u", "j", traces)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusAccepted {
		t.Fatalf("retry status = %d", code)
	}
	srv.Flush()
	if idx := st.List("index/"); len(idx) != 2 {
		t.Fatalf("retry committed %d index entries, want 2: %v", len(idx), idx)
	}
}

func TestHealthEndpointAccounting(t *testing.T) {
	srv, hs := newServer(t)
	// One good token request, one unauthorized.
	doJSON(t, "POST", hs.URL+"/api/token", auth(), TokenRequest{Prefix: "x/", Perm: store.PermRead})
	doJSON(t, "POST", hs.URL+"/api/token", nil, TokenRequest{Prefix: "x/", Perm: store.PermRead})
	// One store failure surfaced as 5xx.
	st := srv.Store
	srv.Store = &faultinject.Store{
		Inner: st,
		Plan:  &faultinject.ForOps{Plan: &faultinject.FailN{N: 1}, Ops: []string{"store.Get"}},
	}
	tok := st.Sign("models/", store.PermRead, srv.TokenTTL)
	resp := doJSON(t, "GET", hs.URL+"/api/object?path=models/u/m.model",
		map[string]string{SASTokenHeader: tok}, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected store fault: status = %d", resp.StatusCode)
	}

	resp = doJSON(t, "GET", hs.URL+"/api/health", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d", resp.StatusCode)
	}
	var h HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("status = %q, want degraded after a fresh 5xx", h.Status)
	}
	tk := h.Endpoints["token"]
	if tk.Requests != 2 || tk.ClientErrors != 1 {
		t.Fatalf("token accounting = %+v", tk)
	}
	ob := h.Endpoints["get_object"]
	if ob.Requests != 1 || ob.ServerErrors != 1 || ob.LastError == "" {
		t.Fatalf("get_object accounting = %+v", ob)
	}
	if h.UptimeSeconds < 0 || h.PendingUpdates != 0 {
		t.Fatalf("health report malformed: %+v", h)
	}
}

func TestRequestDeadlineHonored(t *testing.T) {
	srv, hs := newServer(t)
	srv.RequestTimeout = time.Nanosecond // every request arrives expired
	space := sparksim.QuerySpace()
	var obs []sparksim.Observation
	for i := 0; i < 8; i++ {
		cfg := space.With(space.Default(), sparksim.ShufflePartitions, float64(100+10*i))
		obs = append(obs, sparksim.Observation{Config: cfg, DataSize: 1e9, Time: float64(1000 + i)})
	}
	resp := doJSON(t, "POST", hs.URL+"/api/appcache", auth(), AppCacheRequest{
		ArtifactID: "a", Current: space.Default(),
		Queries: []QueryHistory{{ID: "q", Centroid: space.Default(), Observations: obs}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: status = %d, want 503", resp.StatusCode)
	}
	// The timeout shows up in the endpoint accounting.
	resp = doJSON(t, "GET", hs.URL+"/api/health", nil, nil)
	var h HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Endpoints["compute_appcache"].Timeouts == 0 {
		t.Fatalf("timeout not accounted: %+v", h.Endpoints["compute_appcache"])
	}
}
