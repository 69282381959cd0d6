package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/resilience/faultinject"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/store"
)

// newDurableServer builds a backend over a real durable store whose WAL
// fails on the n-th append, via the store's own crash-point injector.
func newDurableServer(t *testing.T, failOnAppend int) (*Server, *httptest.Server) {
	t.Helper()
	appends := 0
	ds, err := store.OpenDurable(t.TempDir(), []byte("key"), store.DurableOptions{
		NoSync: true,
		Hooks: func(p store.CrashPoint) error {
			if p != store.CrashPreWrite {
				return nil
			}
			appends++
			if appends == failOnAppend {
				return errors.New("disk gone")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sparksim.QuerySpace(), ds, secret, 1)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		_ = ds.Close() // already down; the latched error is expected
	})
	return srv, hs
}

func postEvents(t *testing.T, srv *Server, hs *httptest.Server) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	space := sparksim.QuerySpace()
	if err := flighting.WriteTraces(&buf, []flighting.Trace{{
		QueryID: "s", Config: space.Default(), DataSize: 1, TimeMs: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	tok := srv.Store.Sign("events/", store.PermWrite, srv.TokenTTL)
	req, err := http.NewRequest("POST", hs.URL+"/api/events?user=u&signature=s&job_id=j", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SASTokenHeader, tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestIngestSurfacesFailedCommit: handleEvents commits the event file and
// its index entry as one WAL record. When that append fails the handler must
// answer 5xx — a 202 would acknowledge an ingest that never persisted — and
// neither object may be visible.
func TestIngestSurfacesFailedCommit(t *testing.T) {
	srv, hs := newDurableServer(t, 1)
	resp := postEvents(t, srv, hs)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ingest with failed commit: status = %d; want 500", resp.StatusCode)
	}
	if got := append(srv.Store.List("events/"), srv.Store.List("index/")...); len(got) != 0 {
		t.Fatalf("failed ingest left %v behind", got)
	}

	// The failure is latched: health must report the store down, not "ok".
	hresp, err := http.Get(hs.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h HealthReport
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "down" || h.StoreError == "" {
		t.Fatalf("health after durability failure = %q (store_error=%q); want down with a cause", h.Status, h.StoreError)
	}
}

// TestHealthSeesLatchedStoreBehindWrapper: a durable store behind the
// fault-injecting wrapper still reports its latched failure. /api/health
// asks the store the backend holds, so the wrapper must pass Err through.
func TestHealthSeesLatchedStoreBehindWrapper(t *testing.T) {
	ds, err := store.OpenDurable(t.TempDir(), []byte("key"), store.DurableOptions{
		NoSync: true,
		Hooks: func(p store.CrashPoint) error {
			if p == store.CrashPreWrite {
				return errors.New("disk gone")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sparksim.QuerySpace(), &faultinject.Store{Inner: ds}, secret, 1)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		_ = ds.Close() // already down; the latched error is expected
	})
	if resp := postEvents(t, srv, hs); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ingest on a dying store: status = %d; want 500", resp.StatusCode)
	}
	hresp, err := http.Get(hs.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h HealthReport
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "down" || !strings.Contains(h.StoreError, "disk gone") {
		t.Fatalf("health behind the wrapper = %q (store_error=%q); want down with the cause", h.Status, h.StoreError)
	}
}

// TestHealthyDurableIngestStillAccepted pins the non-failure path: with no
// injected fault the same ingest is a 202 and health stays "ok", so the
// commit check cannot have introduced false rejections.
func TestHealthyDurableIngestStillAccepted(t *testing.T) {
	srv, hs := newDurableServer(t, 0) // never fails
	resp := postEvents(t, srv, hs)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy ingest: status = %d; want 202", resp.StatusCode)
	}
	hresp, err := http.Get(hs.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h HealthReport
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.StoreError != "" {
		t.Fatalf("healthy durable backend reports %q (store_error=%q)", h.Status, h.StoreError)
	}
}

// postRun ingests one single-trace run for job "j" whose payload is
// identified by its run time, and requires the 202.
func postRun(t *testing.T, srv *Server, hs *httptest.Server, timeMs float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, []flighting.Trace{{
		QueryID: "s", Config: sparksim.QuerySpace().Default(), DataSize: 1, TimeMs: timeMs,
	}}); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", hs.URL+"/api/events?user=u&signature=s&job_id=j", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SASTokenHeader, srv.Store.Sign("events/", store.PermWrite, srv.TokenTTL))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest of run %g: status = %d; want 202", timeMs, resp.StatusCode)
	}
}

// TestSequenceSeedSurvivesRetentionSweep: a restarted (or promoted) server
// seeds a job's event-file counter from the store. After the retention sweep
// has reaped the job's oldest files the surviving names no longer start at
// zero, and a seed taken from their count names a file that still exists: the
// next acknowledged ingest would overwrite an acknowledged event.
func TestSequenceSeedSurvivesRetentionSweep(t *testing.T) {
	st := store.New([]byte("key"))
	clock := resilience.NewFakeClock(time.Unix(100000, 0))
	st.SetClock(clock.Now)
	serve := func() (*Server, *httptest.Server) {
		srv := New(sparksim.QuerySpace(), st, secret, 1)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { hs.Close(); srv.Close() })
		return srv, hs
	}
	srv, hs := serve()
	postRun(t, srv, hs, 101)
	postRun(t, srv, hs, 102)
	clock.Advance(48 * time.Hour)
	postRun(t, srv, hs, 103)
	postRun(t, srv, hs, 104)
	if n := st.CleanupOlderThan(24 * time.Hour); n != 2 {
		t.Fatalf("sweep reaped %d event files; want 2", n)
	}

	restarted, hs2 := serve()
	postRun(t, restarted, hs2, 105)
	files := st.List("events/j/")
	if len(files) != 3 {
		t.Fatalf("event files after sweep + restart + ingest = %v; want the 2 survivors and 1 new", files)
	}
	seen := map[float64]bool{}
	for _, f := range files {
		blob, err := st.GetInternal(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		traces, err := flighting.ReadTraces(bytes.NewReader(blob))
		if err != nil || len(traces) != 1 {
			t.Fatalf("%s: %d traces, %v", f, len(traces), err)
		}
		seen[traces[0].TimeMs] = true
	}
	if !seen[103] || !seen[104] || !seen[105] {
		t.Fatalf("payloads after restart = %v; want runs 103, 104 and 105 (an acknowledged event was overwritten)", seen)
	}
}

// TestDurableDamagedEventPayload: a byte of a stored event file flipped on
// disk — the durable store keeps payloads only in its WAL and snapshot — is
// an error, never the wrong bytes. GET /api/object answers 500 (the object
// exists, so not 404), and the retrain skips that event with its
// "unreadable event file" line and fits the model on the rest.
func TestDurableDamagedEventPayload(t *testing.T) {
	dir := t.TempDir()
	ds, err := store.OpenDurable(dir, []byte("key"), store.DurableOptions{NoSync: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sparksim.QuerySpace(), ds, secret, 1)
	var logs bytes.Buffer
	srv.Logger = log.New(&logs, "", 0)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		ds.Close()
	})
	const runs, victim = 6, 2
	for seq := 0; seq < runs; seq++ {
		var buf bytes.Buffer
		if err := flighting.WriteTraces(&buf, []flighting.Trace{{
			QueryID: "s", Config: sparksim.QuerySpace().Default(), DataSize: 1, TimeMs: float64(100 + seq),
		}}); err != nil {
			t.Fatal(err)
		}
		if err := ds.Commit(context.Background(), []store.Entry{
			{Path: store.EventPath("j", seq), Data: buf.Bytes()},
			{Path: signatureIndexPath("u", "s", "j", seq)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	payload, err := ds.GetInternal(store.EventPath("j", victim))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit of the payload's first byte in the WAL, which holds it raw.
	wal := filepath.Join(dir, "wal.log")
	img, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(img, payload)
	if at < 0 || bytes.Count(img, payload) != 1 {
		t.Fatal("event payload not in the WAL exactly once")
	}
	f, err := os.OpenFile(wal, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte{img[at] ^ 0x20}, int64(at))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest("GET", hs.URL+"/api/object?path="+store.EventPath("j", victim), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SASTokenHeader, srv.Store.Sign("events/", store.PermRead, time.Hour))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET of a damaged object: status %d (%q); want 500", resp.StatusCode, body)
	}

	srv.retrain(updateJob{user: "u", signature: "s"})
	idx := signatureIndexPath("u", "s", "j", victim)
	if !strings.Contains(logs.String(), fmt.Sprintf("index entry %q points at unreadable event file", idx)) {
		t.Fatalf("retrain did not log the damaged event as unreadable: %q", logs.String())
	}
	if _, err := ds.GetInternal(store.ModelPath("u", "s")); err != nil {
		t.Fatalf("retrain on the %d intact events wrote no model: %v", runs-1, err)
	}
}

// TestRetentionSweepReapsIndexEntries: the retention sweep reaps a run's
// signature index entry with its event file, so after a sweep every listed
// index entry resolves and the next retrain reads no reaped file.
func TestRetentionSweepReapsIndexEntries(t *testing.T) {
	st := store.New([]byte("key"))
	clock := resilience.NewFakeClock(time.Unix(100000, 0))
	st.SetClock(clock.Now)
	srv := New(sparksim.QuerySpace(), st, secret, 1)
	var logs bytes.Buffer
	srv.Logger = log.New(&logs, "", 0)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	for run := 0; run < 4; run++ {
		postRun(t, srv, hs, float64(100+run))
	}
	clock.Advance(48 * time.Hour)
	for run := 4; run < 8; run++ {
		postRun(t, srv, hs, float64(100+run))
	}
	srv.Flush()
	if n := st.CleanupOlderThan(24 * time.Hour); n != 4 {
		t.Fatalf("sweep reaped %d event files; want 4", n)
	}
	entries := st.List("index/u/s/")
	if len(entries) != 4 {
		t.Fatalf("index entries after the sweep = %v; want the 4 runs still stored", entries)
	}
	for _, idx := range entries {
		jobID, seq, err := parseIndexEntry(idx[len("index/u/s/"):])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.GetInternal(store.EventPath(jobID, seq)); err != nil {
			t.Fatalf("index entry %q outlived its event file: %v", idx, err)
		}
	}
	logs.Reset()
	srv.retrain(updateJob{user: "u", signature: "s"})
	if strings.Contains(logs.String(), "points at unreadable event file") {
		t.Fatalf("retrain after the sweep read reaped files: %q", logs.String())
	}
}
