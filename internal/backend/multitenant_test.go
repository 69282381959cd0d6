package backend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/eventlog"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// sigTraces builds perSig traces for each signature, round-robin, so a batch
// body spans several signatures the way a real multi-query app run does.
func sigTraces(sigs []string, perSig int, seed uint64) []flighting.Trace {
	base := traceBatch(len(sigs)*perSig, seed)
	for i := range base {
		base[i].QueryID = sigs[i%len(sigs)]
	}
	return base
}

// postBatch ships traces to POST /api/events/batch. Unlike postTracedEvents
// it returns errors instead of calling t.Fatal, so stress tests can hammer
// it from many goroutines.
func postBatch(srv *Server, hs, user, jobID string, traces []flighting.Trace) (int, *BatchResponse, error) {
	tok := srv.Store.Sign("events/", store.PermWrite, srv.TokenTTL)
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, traces); err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest("POST", hs+"/api/events/batch?user="+user+"&job_id="+jobID, &buf)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(SASTokenHeader, tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, nil, nil
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, &br, nil
}

// tenantEventCount walks a tenant's signature index and counts the traces in
// every event file it references — the store-side truth for "events this
// tenant was acknowledged for".
func tenantEventCount(t *testing.T, st ObjectStore, user string) int {
	t.Helper()
	total := 0
	prefix := "index/" + user + "/"
	for _, p := range st.List(prefix) {
		rest := p[len(prefix):]
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			t.Fatalf("malformed index path %q", p)
		}
		jobID, seq, err := parseIndexEntry(rest[slash+1:])
		if err != nil {
			t.Fatalf("index entry %q: %v", p, err)
		}
		blob, err := st.GetInternal(store.EventPath(jobID, seq))
		if err != nil {
			t.Fatalf("index entry %q points at unreadable event file: %v", p, err)
		}
		traces, err := flighting.ReadTraces(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("corrupt event file behind %q: %v", p, err)
		}
		total += len(traces)
	}
	return total
}

// histP99 computes a scraped histogram's p99 upper bound from its cumulative
// buckets, filtered to one tenant label.
func histP99(t *testing.T, fams []telemetry.Family, name, tenant string) float64 {
	t.Helper()
	fam, ok := telemetry.Find(fams, name)
	if !ok {
		t.Fatalf("histogram %s missing from scrape", name)
	}
	type bkt struct {
		le  float64
		cum float64
	}
	var buckets []bkt
	var count float64
	for _, s := range fam.Series {
		if s.Labels["tenant"] != tenant {
			continue
		}
		switch s.Name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				t.Fatalf("bucket le %q: %v", s.Labels["le"], err)
			}
			buckets = append(buckets, bkt{le: le, cum: s.Value})
		case name + "_count":
			count = s.Value
		}
	}
	if count == 0 || len(buckets) == 0 {
		t.Fatalf("histogram %s has no samples for tenant %q", name, tenant)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	need := 0.99 * count
	for _, b := range buckets {
		if b.cum >= need {
			return b.le
		}
	}
	return math.Inf(1)
}

// TestFairQueueWeightedRoundRobin pins the scheduling law: equal-weight
// tenants alternate one job per turn regardless of backlog depth, and a
// weighted tenant drains weight jobs per turn.
func TestFairQueueWeightedRoundRobin(t *testing.T) {
	job := func(sig string) updateJob { return updateJob{signature: sig} }
	popSig := func(q *fairQueue) string {
		j, ok := q.pop()
		if !ok {
			t.Fatal("pop on non-empty queue returned nothing")
		}
		return j.signature
	}

	var q fairQueue
	// noisy floods 4 jobs before quiet enqueues 2.
	for i := 0; i < 4; i++ {
		q.push("noisy", job(fmt.Sprintf("n%d", i)))
	}
	q.push("quiet", job("q0"))
	q.push("quiet", job("q1"))
	want := []string{"n0", "q0", "n1", "q1", "n2", "n3"}
	for i, w := range want {
		if got := popSig(&q); got != w {
			t.Fatalf("equal-weight pop %d = %q, want %q", i, got, w)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("drained queue still pops")
	}

	// A weight-2 tenant takes two jobs per rotation.
	var wq fairQueue
	wq.setWeight("heavy", 2)
	for i := 0; i < 4; i++ {
		wq.push("heavy", job(fmt.Sprintf("h%d", i)))
	}
	wq.push("light", job("l0"))
	wq.push("light", job("l1"))
	want = []string{"h0", "h1", "l0", "h2", "h3", "l1"}
	for i, w := range want {
		if got := popSig(&wq); got != w {
			t.Fatalf("weighted pop %d = %q, want %q", i, got, w)
		}
	}
	// The weighted tenant's sub-queue survives drain (its weight must too);
	// the default-weight tenant is pruned.
	if _, ok := wq.queues["heavy"]; !ok {
		t.Error("weighted tenant pruned on drain — its weight is lost")
	}
	if _, ok := wq.queues["light"]; ok {
		t.Error("default-weight tenant retained on drain — the map would grow unbounded")
	}
}

// TestFairQueueConservesJobs: under a random interleaving of pushes and
// pops, with one tenant weighted, every job comes out exactly once, each
// tenant's jobs come out in the order they were pushed, size tracks the
// backlog, and once drained only a tenant weighted above 1 keeps a sub-queue.
func TestFairQueueConservesJobs(t *testing.T) {
	for _, weight := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("weight=%d", weight), func(t *testing.T) {
			tenants := []string{"heavy", "a", "b"}
			rng := stats.NewRNG(uint64(weight))
			var q fairQueue
			q.setWeight("heavy", weight)
			pushed := make(map[string]int, len(tenants))
			popped := make(map[string]int, len(tenants))
			backlog := 0
			pop := func() {
				j, ok := q.pop()
				if !ok {
					t.Fatalf("pop with %d jobs queued returned nothing", backlog)
				}
				var tenant string
				var seq int
				if _, err := fmt.Sscanf(j.signature, "%s %d", &tenant, &seq); err != nil {
					t.Fatalf("unexpected job %q: %v", j.signature, err)
				}
				if seq != popped[tenant] {
					t.Fatalf("%s popped job %d, want %d (FIFO within a tenant)", tenant, seq, popped[tenant])
				}
				popped[tenant]++
				backlog--
			}
			for step := 0; step < 600; step++ {
				if backlog > 0 && rng.Intn(5) < 2 {
					pop()
				} else {
					tenant := tenants[rng.Intn(len(tenants))]
					q.push(tenant, updateJob{signature: fmt.Sprintf("%s %d", tenant, pushed[tenant])})
					pushed[tenant]++
					backlog++
				}
				if q.size != backlog {
					t.Fatalf("step %d: size = %d, backlog %d", step, q.size, backlog)
				}
			}
			for backlog > 0 {
				pop()
			}
			if j, ok := q.pop(); ok {
				t.Fatalf("drained queue popped %q", j.signature)
			}
			for _, tenant := range tenants {
				if popped[tenant] != pushed[tenant] {
					t.Fatalf("%s: pushed %d, popped %d", tenant, pushed[tenant], popped[tenant])
				}
			}
			// Weight 1 is the default, so then nothing distinguishes "heavy"
			// from a fresh tenant and it is pruned with the others.
			want := 1
			if weight == 1 {
				want = 0
			}
			if len(q.queues) != want || (want == 1 && q.queues["heavy"] == nil) {
				t.Fatalf("sub-queues left after drain: %v, want %d (only a weighted tenant's)", q.order, want)
			}
		})
	}
}

// TestTenantRateLimit drives the token bucket through drain, shed, and
// refill on a fake clock, and checks the per-tenant admitted/shed counters.
func TestTenantRateLimit(t *testing.T) {
	srv, hs := newServer(t)
	fc := resilience.NewFakeClock(time.Unix(50000, 0))
	srv.SetClock(fc)
	srv.TenantRate = 1 // 1 event/second
	srv.TenantBurst = 4

	// 4 traces drain the burst exactly.
	if code := postTracedEvents(t, srv, hs.URL, nil, 4); code != http.StatusAccepted {
		t.Fatalf("first batch status = %d, want 202", code)
	}
	// The bucket is empty: the next single trace sheds with Retry-After.
	tok := srv.Store.Sign("events/", store.PermWrite, srv.TokenTTL)
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, traceBatch(1, 9)); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", hs.URL+"/api/events?user=u&signature=s&job_id=j", &buf)
	req.Header.Set(SASTokenHeader, tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained-bucket status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("rate-limited 429 without Retry-After")
	}
	if got := srv.tele.tenantShed.With("u", "rate_limit").Value(); got != 1 {
		t.Errorf("tenant shed(rate_limit) = %v, want 1", got)
	}

	// Four fake seconds refill four tokens.
	fc.Advance(4 * time.Second)
	if code := postTracedEvents(t, srv, hs.URL, nil, 4); code != http.StatusAccepted {
		t.Fatalf("post-refill status = %d, want 202", code)
	}
	if got := srv.tele.tenantAdmitted.With("u").Value(); got != 8 {
		t.Errorf("tenant admitted = %v, want 8", got)
	}
	srv.Flush()
}

// TestEventBatchEndpoint: one POST /api/events/batch spanning two signatures
// lands both event files and both index entries, triggers both retrains, and
// accounts every trace to the tenant.
func TestEventBatchEndpoint(t *testing.T) {
	srv, hs := newServer(t)
	traces := sigTraces([]string{"sigA", "sigB"}, 4, 3)
	code, br, err := postBatch(srv, hs.URL, "u", "j", traces)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusAccepted {
		t.Fatalf("batch status = %d, want 202", code)
	}
	if br.Signatures != 2 || br.Events != 8 {
		t.Fatalf("batch response = %+v, want 2 signatures / 8 events", br)
	}
	if got := len(srv.Store.List("events/j/")); got != 2 {
		t.Errorf("event files = %d, want 2 (one per signature)", got)
	}
	for _, sig := range []string{"sigA", "sigB"} {
		if got := len(srv.Store.List("index/u/" + sig + "/")); got != 1 {
			t.Errorf("index entries for %s = %d, want 1", sig, got)
		}
	}
	srv.Flush()
	for _, sig := range []string{"sigA", "sigB"} {
		if _, err := srv.Store.GetInternal(store.ModelPath("u", sig)); err != nil {
			t.Errorf("no model for %s after flush: %v", sig, err)
		}
	}
	if got := srv.tele.tenantAdmitted.With("u").Value(); got != 8 {
		t.Errorf("tenant admitted = %v, want 8", got)
	}
	if got := tenantEventCount(t, srv.Store, "u"); got != 8 {
		t.Errorf("indexed tenant events = %d, want 8", got)
	}
}

// badSegments are the user / signature / query_id values every ingest
// endpoint must refuse: spliced into index/<user>/<sig>/… and
// models/<user>/<sig>.model they would alias another tenant's keys ("a/b")
// or be cleaned out of the path ("." and "..").
var badSegments = []string{"", ".", "..", "a/b", "/"}

// TestEventBatchValidation pins the endpoint's reject paths: missing or
// non-segment params, empty body, and traces whose query_id signature key is
// missing or not one path segment.
func TestEventBatchValidation(t *testing.T) {
	srv, hs := newServer(t)
	for _, bad := range badSegments {
		if code, _, _ := postBatch(srv, hs.URL, bad, "j", sigTraces([]string{"s"}, 1, 3)); code != http.StatusBadRequest {
			t.Errorf("user %q status = %d, want 400", bad, code)
		}
		if code, _, _ := postBatch(srv, hs.URL, "u", "j", sigTraces([]string{"s", bad}, 1, 3)); code != http.StatusBadRequest {
			t.Errorf("query_id %q status = %d, want 400", bad, code)
		}
	}
	if code, _, _ := postBatch(srv, hs.URL, "u", "j", nil); code != http.StatusUnprocessableEntity {
		t.Errorf("empty batch status = %d, want 422", code)
	}
	// Nothing was persisted by the rejects.
	if got := len(srv.Store.List("")); got != 0 {
		t.Errorf("rejected batches left %d objects", got)
	}
}

// postIngest posts body to an ingest path under tok and decodes the 202.
func postIngest(t *testing.T, hs, path, tok string, body []byte) (int, BatchResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", hs+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SASTokenHeader, tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, br
}

// TestEventBatchCrashAtomicity kills the store at each crash point under
// each ingest endpoint. A crash before or inside the WAL record is a 5xx and
// recovery surfaces none of the request; a crash in the compaction that
// follows the record is a 202 and recovery surfaces all of it. Event files
// and index entries always come back in equal number: both or neither.
func TestEventBatchCrashAtomicity(t *testing.T) {
	posts := map[string]struct {
		post  func(t *testing.T, srv *Server, hs string) int
		files int // event files (and index entries) one request commits
	}{
		"events": {func(t *testing.T, srv *Server, hs string) int {
			return postTracedEvents(t, srv, hs, nil, 3)
		}, 1},
		"events_batch": {func(t *testing.T, srv *Server, hs string) int {
			code, _, err := postBatch(srv, hs, "u", "j", sigTraces([]string{"sigA", "sigB"}, 4, 3))
			if err != nil {
				t.Fatal(err)
			}
			return code
		}, 2},
		// A raw log reaches the store as its client-side digest: two
		// signatures in one batch.
		"eventlog": {func(t *testing.T, srv *Server, hs string) int {
			code, _, err := postBatch(srv, hs, "u", "j", twoSigDigest(t))
			if err != nil {
				t.Fatal(err)
			}
			return code
		}, 2},
	}
	for name, tc := range posts {
		for _, point := range []store.CrashPoint{store.CrashPreWrite, store.CrashMidRecord, store.CrashPreRename, store.CrashPostRename} {
			t.Run(name+"/"+point.String(), func(t *testing.T) {
				dir := t.TempDir()
				// CompactEvery 1: the request's one record also reaches the
				// snapshot crash points.
				st, err := store.OpenDurable(dir, []byte("key"), store.DurableOptions{
					NoSync:       true,
					CompactEvery: 1,
					Hooks: func(p store.CrashPoint) error {
						if p == point {
							return fmt.Errorf("injected crash")
						}
						return nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				srv := New(sparksim.QuerySpace(), st, secret, 1)
				hs := httptest.NewServer(srv.Handler())
				t.Cleanup(func() { hs.Close(); srv.Close() })

				want := 0
				switch code := tc.post(t, srv, hs.URL); {
				case code == http.StatusAccepted:
					want = tc.files
				case code < 500:
					t.Fatalf("crashed commit status = %d, want 202 or 5xx", code)
				}
				if logged := point >= store.CrashPreRename; logged != (want > 0) {
					t.Fatalf("crash at %s acknowledged = %v, want %v", point, want > 0, logged)
				}
				srv.Flush() // the store is down: no retrain can add a model
				rec, err := store.OpenDurable(dir, []byte("key"), store.DurableOptions{NoSync: true})
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
				defer rec.Close()
				if ev, idx := rec.List("events/"), rec.List("index/"); len(ev) != want || len(idx) != want || rec.Len() != 2*want {
					t.Errorf("recovered %v + %v of %d objects, want %d event files and as many index entries, nothing else", ev, idx, rec.Len(), want)
				}
			})
		}
	}
}

// TestEventBatchIsOneCommit pins the record count of the unified tail: a
// two-signature batch, a raw log's digest, is exactly one WAL append (two
// event files and two index entries in one group commit).
func TestEventBatchIsOneCommit(t *testing.T) {
	srv, hs, appends := walAppendsServer(t)

	code, br, err := postBatch(srv, hs.URL, "u", "j", twoSigDigest(t))
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusAccepted || br.Signatures != 2 || br.Events != 6 {
		t.Fatalf("two-signature batch: code=%d resp=%+v, want 202 with 2/6", code, br)
	}
	srv.Flush() // three traces per signature: the retrains skip, so no model writes
	if got := appends(); got != 1 {
		t.Errorf("two-signature batch cost %v WAL appends, want 1", got)
	}
	if ev, idx := srv.Store.List("events/j/"), srv.Store.List("index/u/"); len(ev) != 2 || len(idx) != 2 {
		t.Errorf("committed %d event files / %d index entries, want 2 / 2", len(ev), len(idx))
	}
}

// walAppendsServer is a backend over a durable store whose WAL appends are
// counted on the series production exports.
func walAppendsServer(t *testing.T) (*Server, *httptest.Server, func() float64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	st, err := store.OpenDurable(t.TempDir(), []byte("key"), store.DurableOptions{NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sparksim.QuerySpace(), st, secret, 1)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close(); st.Close() })
	return srv, hs, reg.Counter("rockhopper_wal_appends_total", "").With().Value
}

// TestEventsIsOneCommit: one /api/events request is one WAL append carrying
// the event file and its index entry. The event file is the canonical
// rendering of the parsed traces, whatever spacing and key order the
// request body used.
func TestEventsIsOneCommit(t *testing.T) {
	srv, hs, appends := walAppendsServer(t)
	traces := traceBatch(3, 3)
	var body bytes.Buffer
	for _, tr := range traces {
		// A map marshals its keys sorted, not in the struct's order.
		line, err := json.MarshalIndent(map[string]any{
			"query_id": tr.QueryID, "config": tr.Config, "data_size": tr.DataSize, "time_ms": tr.TimeMs,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		body.Write(append(line, '\n'))
	}
	var want bytes.Buffer
	if err := flighting.WriteTraces(&want, traces); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(body.Bytes(), want.Bytes()) {
		t.Fatal("the request body is already canonical; the test proves nothing")
	}
	if resp := postTraces(t, srv, hs.URL, "/api/events?user=u&signature=s&job_id=j", &body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	srv.Flush() // three traces: the retrain skips, so no model write
	if got := appends(); got != 1 {
		t.Errorf("one /api/events request cost %v WAL appends, want 1", got)
	}
	got, err := srv.Store.GetInternal(store.EventPath("j", 0))
	if err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("event file = %q, %v; want the canonical rendering %q", got, err, want.Bytes())
	}
	if back, err := flighting.ReadTraces(bytes.NewReader(got)); err != nil || !reflect.DeepEqual(back, traces) {
		t.Errorf("event file reads back as %+v, %v; want %+v", back, err, traces)
	}
	if idx := srv.Store.List("index/"); len(idx) != 1 || idx[0] != "index/u/s/j-000000" {
		t.Errorf("index entries = %v, want [index/u/s/j-000000]", idx)
	}
}

// TestIngestOneTail holds each ingest endpoint to what the tail they share
// promises: a token scoped off the job's event folder is a 403 that stores
// nothing and uses no sequence number, so the next accepted post lands at
// events/j/000000; the 202 body counts the signatures and events; and each
// signature's event file is the flighting.WriteTraces rendering of its
// traces, in signature order.
func TestIngestOneTail(t *testing.T) {
	space := sparksim.QuerySpace()
	log := rawTwoSigLog(t)
	// The digest as the server-side ETL computed it, run by run: the client's
	// eventlog.Digest must store exactly these bytes.
	runs, err := eventlog.Parse(bytes.NewReader(log), space)
	if err != nil {
		t.Fatal(err)
	}
	var digested []flighting.Trace
	for _, run := range runs {
		tr := eventlog.ETL([]eventlog.Run{run}, nil)[0]
		tr.QueryID = sparksim.Signature(run.Plan)
		digested = append(digested, tr)
	}
	single, batch := traceBatch(3, 3), sigTraces([]string{"sigB", "sigA"}, 2, 3)
	render := func(traces []flighting.Trace) []byte {
		var buf bytes.Buffer
		if err := flighting.WriteTraces(&buf, traces); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	clientDigest, err := eventlog.Digest(log, space)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, path string
		body       []byte
		traces     []flighting.Trace // what the request ingests, each under its QueryID
	}{
		{"events", "/api/events?user=u&signature=s&job_id=j", render(single), single},
		{"events_batch", "/api/events/batch?user=u&job_id=j", render(batch), batch},
		{"eventlog", "/api/events/batch?user=u&job_id=j", render(clientDigest), digested},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, hs := newServer(t)
			bySig := map[string][]flighting.Trace{}
			for _, tr := range tc.traces {
				bySig[tr.QueryID] = append(bySig[tr.QueryID], tr)
			}
			sigs := make([]string, 0, len(bySig))
			for sig := range bySig {
				sigs = append(sigs, sig)
			}
			sort.Strings(sigs)

			offJob := srv.Store.Sign("events/other/", store.PermWrite, srv.TokenTTL)
			if code, _ := postIngest(t, hs.URL, tc.path, offJob, tc.body); code != http.StatusForbidden {
				t.Fatalf("token scoped off the job: status = %d, want 403", code)
			}
			if got := srv.Store.List(""); len(got) != 0 {
				t.Fatalf("a 403 stored %v", got)
			}
			code, br := postIngest(t, hs.URL, tc.path, srv.Store.Sign("events/j/", store.PermWrite, srv.TokenTTL), tc.body)
			if want := (BatchResponse{Signatures: len(sigs), Events: len(tc.traces)}); code != http.StatusAccepted || br != want {
				t.Fatalf("status %d, body %+v; want 202 with %+v", code, br, want)
			}
			for seq, sig := range sigs {
				if got, err := srv.Store.GetInternal(store.EventPath("j", seq)); err != nil || !bytes.Equal(got, render(bySig[sig])) {
					t.Errorf("%s: event file = %q, %v; want the rendering of its %d traces", sig, got, err, len(bySig[sig]))
				}
				if idx := srv.Store.List("index/u/" + sig + "/"); len(idx) != 1 || idx[0] != signatureIndexPath("u", sig, "j", seq) {
					t.Errorf("%s: index entries = %v, want [%s]", sig, idx, signatureIndexPath("u", sig, "j", seq))
				}
			}
			srv.Flush()
		})
	}
}

// TestRetrainIsOneCommit: one retrain is one WAL append — so one replicated
// frame — carrying the model and nothing else.
func TestRetrainIsOneCommit(t *testing.T) {
	srv, hs, appends := walAppendsServer(t)
	if code := postTracedEvents(t, srv, hs.URL, nil, 8); code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", code)
	}
	srv.Flush()
	if got := appends(); got != 2 {
		t.Errorf("one ingest and its retrain cost %v WAL appends, want 1 + 1", got)
	}
	if _, err := srv.Store.GetInternal(store.ModelPath("u", "s")); err != nil {
		t.Errorf("retrain did not write the model: %v", err)
	}
	if got := srv.Store.List("models/"); len(got) != 1 {
		t.Errorf("models = %v, want the one model", got)
	}
	if got := srv.Store.Len(); got != 3 {
		t.Errorf("store holds %d objects, want 3: the event file, its index entry and the model", got)
	}
}

// TestEnqueueCloseRaceRegression hammers the admission/enqueue path against
// Close. The old implementation enqueued by sending on a channel that Close
// concurrently closed — under -race (or just bad luck) that paniced with
// "send on closed channel". The fixed path does everything under one mutex,
// so this must run clean.
func TestEnqueueCloseRaceRegression(t *testing.T) {
	for round := 0; round < 20; round++ {
		srv := New(sparksim.QuerySpace(), store.New([]byte("key")), secret, 1)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if srv.tryAdmit(1) {
						srv.enqueueReserved(updateJob{user: fmt.Sprintf("u%d", g), signature: "s"})
					}
				}
			}(g)
		}
		srv.Close() // races the enqueues above
		wg.Wait()
	}
}

// TestAdmissionReservationNoOvershoot is the TOCTOU regression test: with
// MaxPendingUpdates=4 and 16 goroutines posting concurrently, the observed
// pending high-water mark must never exceed 4. The old check-then-enqueue
// read the depth without holding the reservation, so concurrent requests all
// passed the stale check and overshot the bound.
func TestAdmissionReservationNoOvershoot(t *testing.T) {
	srv, hs := newServer(t)
	srv.MaxPendingUpdates = 4

	traces := sigTraces([]string{"s"}, 4, 3)
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed := 0
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				code, _, err := postBatch(srv, hs.URL, fmt.Sprintf("u%d", g), fmt.Sprintf("j%d", g), traces)
				if err != nil {
					t.Error(err)
					return
				}
				if code == http.StatusTooManyRequests {
					mu.Lock()
					shed++
					mu.Unlock()
				} else if code != http.StatusAccepted {
					t.Errorf("unexpected status %d", code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	srv.Flush()
	srv.mu.Lock()
	peak := srv.peakPending
	srv.mu.Unlock()
	if peak > 4 {
		t.Errorf("peak pending = %d, want <= MaxPendingUpdates (4) — admission overshoot", peak)
	}
	if peak == 0 {
		t.Error("peak pending = 0; the test admitted nothing and proves nothing")
	}
	t.Logf("peak=%d shed=%d", peak, shed)
}

// TestHostileTenantStress is the multi-tenant SLO test: one hostile tenant
// floods batches until it is shed, while three well-behaved tenants ingest
// within their budget. All SLO traffic must land 202 with bounded p99, the
// hostile tenant must see 429s, and after a kill/restart the store must hold
// exactly the events each tenant was acknowledged for — zero loss, zero
// phantom.
func TestHostileTenantStress(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenDurable(dir, []byte("key"), store.DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sparksim.QuerySpace(), st, secret, 1)
	srv.TenantRate = 100
	srv.TenantBurst = 120
	hs := httptest.NewServer(srv.Handler())

	traces2 := sigTraces([]string{"sigA", "sigB"}, 4, 3) // 8 events, 2 sigs
	traces1 := sigTraces([]string{"sigC"}, 4, 5)         // 4 events, 1 sig

	acked := make(map[string]int) // tenant -> acknowledged events
	var mu sync.Mutex
	var wg sync.WaitGroup

	// Hostile tenant: flood until shed (or a generous cap — rate 100/s with
	// burst 120 sheds a tight loop of 8-event batches almost immediately).
	hostileShed := false
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			code, _, err := postBatch(srv, hs.URL, "hostile", "jh", traces2)
			if err != nil {
				t.Error(err)
				return
			}
			switch code {
			case http.StatusAccepted:
				mu.Lock()
				acked["hostile"] += 8
				mu.Unlock()
			case http.StatusTooManyRequests:
				mu.Lock()
				hostileShed = true
				mu.Unlock()
				return
			default:
				t.Errorf("hostile post status %d", code)
				return
			}
		}
	}()

	// SLO tenants: 15 posts of 4 events each = 60 events, well under the
	// 120 burst — every one must be accepted even while hostile floods.
	for _, tenant := range []string{"slo1", "slo2", "slo3"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				code, _, err := postBatch(srv, hs.URL, tenant, "j"+tenant, traces1)
				if err != nil {
					t.Error(err)
					return
				}
				if code != http.StatusAccepted {
					t.Errorf("SLO tenant %s shed with %d on post %d", tenant, code, i)
					return
				}
				mu.Lock()
				acked[tenant] += 4
				mu.Unlock()
			}
		}(tenant)
	}
	wg.Wait()
	srv.Flush()

	if !hostileShed {
		t.Error("hostile tenant was never rate-limited")
	}
	fams := scrape(t, hs.URL)
	if shed, ok := telemetry.Find(fams, "rockhopper_tenant_shed_total"); !ok {
		t.Error("tenant shed counter missing from scrape")
	} else {
		found := false
		for _, s := range shed.Series {
			if s.Labels["tenant"] == "hostile" && s.Value > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("no shed series for hostile tenant: %+v", shed.Series)
		}
	}
	for _, tenant := range []string{"slo1", "slo2", "slo3"} {
		if p99 := histP99(t, fams, "rockhopper_tenant_ingest_seconds", tenant); p99 > 2.5 {
			t.Errorf("tenant %s ingest p99 bound = %vs, want <= 2.5s", tenant, p99)
		}
	}

	// Kill: drop the server and the HTTP front end WITHOUT closing the store
	// cleanly, then recover from disk. Every acknowledged event must be
	// there; nothing more.
	hs.Close()
	srv.Close()
	rec, err := store.OpenDurable(dir, []byte("key"), store.DurableOptions{NoSync: true})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer rec.Close()
	for tenant, want := range acked {
		if got := tenantEventCount(t, rec, tenant); got != want {
			t.Errorf("tenant %s: recovered %d events, acknowledged %d — %s",
				tenant, got, want, map[bool]string{true: "acknowledged loss", false: "phantom events"}[got < want])
		}
	}
}
