package backend

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/store"
)

// TestExplainEndpoint: /api/explain answers 200 for a signature whose last
// pass retrained and for one whose pass was skipped, 404 for a signature no
// pass has run for, and 400 without a well-formed user and signature.
func TestExplainEndpoint(t *testing.T) {
	srv, hs := newServer(t)
	traces := traceBatch(8, 3)
	if code, _, err := postBatch(srv, hs.URL, "u", "j", append(sigTraces([]string{"fit"}, 8, 3), sigTraces([]string{"tiny"}, 1, 3)...)); err != nil || code != http.StatusAccepted {
		t.Fatalf("ingest: status %d, %v", code, err)
	}
	srv.Flush()

	code, fit := explain(t, hs.URL, "u", "fit")
	if code != http.StatusOK {
		t.Fatalf("retrained signature: status %d, want 200", code)
	}
	model, err := srv.Store.GetInternal(store.ModelPath("u", "fit"))
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, tr := range traces {
		best = math.Min(best, tr.TimeMs)
	}
	if fit.Status != "ok" || fit.Runs != 1 || fit.Rows != 8 || fit.ModelBytes != len(model) || fit.BestMs != best || fit.RetrainedUnixMs <= 0 {
		t.Errorf("retrained signature = %+v; want ok over 1 run and 8 rows, a %d-byte model and best %v ms", fit, len(model), best)
	}
	if fit.Drifting || fit.DriftSamples != 0 {
		t.Errorf("first model scored residuals: %+v; there was no serving model to score against", fit)
	}

	code, tiny := explain(t, hs.URL, "u", "tiny")
	if code != http.StatusOK {
		t.Fatalf("skipped signature: status %d, want 200", code)
	}
	if want := (SignatureState{Runs: 1, Rows: 1, Status: "skipped"}); tiny != want {
		t.Errorf("skipped signature = %+v, want %+v", tiny, want)
	}

	for _, q := range []string{"user=u&signature=never", "user=other&signature=fit"} {
		resp, err := http.Get(hs.URL + "/api/explain?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", q, resp.StatusCode)
		}
	}
	for _, q := range []string{"user=u", "signature=fit", "user=u&signature=a/b", "user=..&signature=fit"} {
		resp, err := http.Get(hs.URL + "/api/explain?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestExplainWireFields pins the JSON field names /api/explain serves.
func TestExplainWireFields(t *testing.T) {
	srv, hs := newServer(t)
	if code := postTracedEvents(t, srv, hs.URL, nil, 1); code != http.StatusAccepted {
		t.Fatalf("ingest status = %d", code)
	}
	srv.Flush()
	resp, err := http.Get(hs.URL + "/api/explain?user=u&signature=s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"status":"skipped"`) {
		t.Errorf("one trace is a skipped pass; body %s", body)
	}
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := "best_ms,drift_samples,drift_score,drifting,model_bytes,retrained_unix_ms,rows,runs,status"
	if got := strings.Join(keys, ","); got != want {
		t.Errorf("explain fields = %s, want %s", got, want)
	}
}

// TestExplainMisroutedBounces: a fleet node that does not own the signature
// answers 421 with the owner's address, like a misrouted ingest.
func TestExplainMisroutedBounces(t *testing.T) {
	srv, hs := newServer(t)
	srv.SetFleet(stubFleet{
		ownURL: "http://owner.example",
		mine:   func(sig string) bool { return strings.HasPrefix(sig, "mine-") },
	})
	resp, err := http.Get(hs.URL + "/api/explain?user=u&signature=theirs-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("explain on a non-owner: status %d, want 421", resp.StatusCode)
	}
	var mr MisroutedResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Owner != "http://owner.example" || mr.Signature != "theirs-1" {
		t.Errorf("misroute body = %+v", mr)
	}
	if got := srv.tele.misrouted.With("explain").Value(); got != 1 {
		t.Errorf("misrouted{endpoint=explain} = %v, want 1", got)
	}
	if code, _ := explain(t, hs.URL, "u", "mine-1"); code != http.StatusNotFound {
		t.Errorf("owned signature with no pass: status %d, want 404", code)
	}
}

// TestExplainRefillsAfterRestart: the table is not persisted. A restarted
// node answers 404 until the signature's next ingest retrains it, and then
// reports the whole history, the runs stored before the restart included.
func TestExplainRefillsAfterRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st, err := store.OpenDurable(dir, []byte("key"), store.DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sparksim.QuerySpace(), st, secret, 1)
	hs := httptest.NewServer(srv.Handler())
	if code := postTracedEvents(t, srv, hs.URL, nil, 8); code != http.StatusAccepted {
		t.Fatalf("ingest status = %d", code)
	}
	srv.Flush()
	if code, before := explain(t, hs.URL, "u", "s"); code != http.StatusOK || before.Status != "ok" {
		t.Fatalf("before restart: status %d, %+v", code, before)
	}
	hs.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenDurable(dir, []byte("key"), store.DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(sparksim.QuerySpace(), st2, secret, 1)
	hs2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() { hs2.Close(); srv2.Close(); st2.Close() })
	if got := st2.List("meta/"); len(got) != 0 {
		t.Errorf("retrain persisted %v beside the model", got)
	}
	if code, _ := explain(t, hs2.URL, "u", "s"); code != http.StatusNotFound {
		t.Fatalf("restarted node before any pass: status %d, want 404", code)
	}
	if code := postTracedEvents(t, srv2, hs2.URL, nil, 1); code != http.StatusAccepted {
		t.Fatalf("ingest status = %d", code)
	}
	srv2.Flush()
	code, after := explain(t, hs2.URL, "u", "s")
	if code != http.StatusOK || after.Status != "ok" || after.Runs != 2 || after.Rows != 9 {
		t.Errorf("after restart and one ingest: status %d, %+v; want ok over 2 runs and 9 rows", code, after)
	}
}

// TestExplainConcurrentWithRetrains reads the signature table through the
// handler while the updater writes it; run under -race.
func TestExplainConcurrentWithRetrains(t *testing.T) {
	srv, hs := newServer(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(hs.URL + "/api/explain?user=u&signature=s")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("explain during retrains: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		if code := postTracedEvents(t, srv, hs.URL, nil, 2); code != http.StatusAccepted {
			t.Errorf("ingest %d: status %d", i, code)
		}
	}
	srv.Flush()
	close(done)
	wg.Wait()
	if st, ok := srv.Explain("u", "s"); !ok || st.Status != "ok" || st.Runs != 6 || st.Rows != 12 {
		t.Errorf("after 6 runs of 2 traces: %+v, %v; want ok over 6 runs and 12 rows", st, ok)
	}
}
