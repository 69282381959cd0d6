package backend

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// retrain runs jobs as one round, as the updater does when it pops them
// together.
func (s *Server) retrain(jobs ...updateJob) {
	r := round{s: s}
	for _, j := range jobs {
		r.run(j, 0)
	}
	r.commit()
}

// commitRun stores one run of traces for user/sig as ingest does: the event
// file and its index entry, in one commit.
func commitRun(t *testing.T, st ObjectStore, user, sig, jobID string, seq int, traces []flighting.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, traces); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(context.Background(), []store.Entry{
		{Path: store.EventPath(jobID, seq), Data: buf.Bytes()},
		{Path: signatureIndexPath(user, sig, jobID, seq)},
	}); err != nil {
		t.Fatal(err)
	}
}

// testTrace is a valid trace identity: only a traced job's retrain records
// a span.
func testTrace(i int) telemetry.SpanContext {
	return telemetry.SpanContext{TraceID: 0x7e57, SpanID: uint64(i + 1)}
}

// roundOf returns the round=<k> each retrain span's phase note reports, in
// span order.
func roundOf(t *testing.T, spans []telemetry.Span) []int {
	t.Helper()
	re := regexp.MustCompile(` round=(\d+)$`)
	var out []int
	for _, sp := range spans {
		if sp.Name != "retrain" || len(sp.Annotations) != 2 {
			t.Fatalf("span %+v is not a retrain pass with a phase note", sp)
		}
		m := re.FindStringSubmatch(sp.Annotations[1])
		if m == nil {
			t.Fatalf("phase note %q has no round", sp.Annotations[1])
		}
		k, _ := strconv.Atoi(m[1])
		out = append(out, k)
	}
	return out
}

// TestUpdaterRoundIsOneCommit: a batch over k signatures is one ingest
// commit, and the k retrains it triggers share one more — 1 + 1 WAL
// appends, where a retrain per commit costs 1 + k.
func TestUpdaterRoundIsOneCommit(t *testing.T) {
	const k = 6
	srv, hs, appends := walAppendsServer(t)
	sigs := make([]string, k)
	for i := range sigs {
		sigs[i] = fmt.Sprintf("sig-%d", i)
	}
	var body bytes.Buffer
	if err := flighting.WriteTraces(&body, sigTraces(sigs, 4, 3)); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", hs.URL+"/api/events/batch?user=u&job_id=j", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SASTokenHeader, srv.Store.Sign("events/", store.PermWrite, srv.TokenTTL))
	req.Header.Set(telemetry.TraceHeader, "00000000000000ab-00000000000000cd")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	srv.Flush()
	if got := appends(); got != 2 {
		t.Errorf("a %d-signature batch and its retrains cost %v WAL appends, want 1 + 1", k, got)
	}
	if got := srv.Store.List("models/"); len(got) != k {
		t.Errorf("models = %v, want %d", got, k)
	}
	var retrains []telemetry.Span
	for _, sp := range srv.tele.spans.Snapshot() {
		if sp.Name == "retrain" {
			retrains = append(retrains, sp)
		}
	}
	if got := roundOf(t, retrains); !reflect.DeepEqual(got, []int{k, k, k, k, k, k}) {
		t.Errorf("rounds = %v, want every pass in one round of %d", got, k)
	}
}

// TestUpdaterCoalescesSignature: two jobs for one signature in a round are
// one pass, and it fits both runs' rows.
func TestUpdaterCoalescesSignature(t *testing.T) {
	srv, _, appends := walAppendsServer(t)
	commitRun(t, srv.Store, "u", "s", "j", 0, traceBatch(4, 3))
	commitRun(t, srv.Store, "u", "s", "j", 1, traceBatch(4, 5))
	before := appends()
	job := updateJob{user: "u", signature: "s", trace: testTrace(1)}
	srv.retrain(job, job)
	if got := appends() - before; got != 1 {
		t.Errorf("the round cost %v WAL appends, want 1", got)
	}
	if got := srv.tele.retrains.Value(); got != 1 {
		t.Errorf("retrains_total = %v, want one pass", got)
	}
	if spans := srv.tele.spans.Snapshot(); len(spans) != 1 {
		t.Errorf("%d retrain spans, want 1", len(spans))
	}
	if st, ok := srv.Explain("u", "s"); !ok || st.Status != "ok" || st.Runs != 2 || st.Rows != 8 {
		t.Errorf("explain = %+v, %v; want one pass over both runs' 8 rows", st, ok)
	}
}

// TestUpdaterRoundCuts: a round commits early where the pop order crosses
// to another tenant, and where its models reach maxCommitBytes; every
// record it writes is a frame a follower applies in sequence, without a
// snapshot catch-up.
func TestUpdaterRoundCuts(t *testing.T) {
	t.Run("tenant switch", func(t *testing.T) {
		srv, _, appends := walAppendsServer(t)
		var jobs []updateJob
		for i, us := range [][2]string{{"ua", "s1"}, {"ua", "s2"}, {"ub", "s1"}, {"ub", "s2"}, {"ua", "s3"}} {
			commitRun(t, srv.Store, us[0], us[1], "j", i, traceBatch(4, uint64(i+1)))
			jobs = append(jobs, updateJob{user: us[0], signature: us[1], trace: testTrace(i)})
		}
		before := appends()
		srv.retrain(jobs...)
		if got := appends() - before; got != 3 {
			t.Errorf("the round cost %v WAL appends, want 3: one per tenant run", got)
		}
		if got := roundOf(t, srv.tele.spans.Snapshot()); !reflect.DeepEqual(got, []int{2, 2, 2, 2, 1}) {
			t.Errorf("rounds = %v, want [2 2 2 2 1]", got)
		}
	})

	t.Run("model bytes", func(t *testing.T) {
		// 160 signatures of 200 rows: about 8 KB of model each, 1.3 MB in all.
		const sigs, rows = 160, 200
		var frames [][]byte
		dir := t.TempDir()
		st, err := store.OpenDurable(dir, []byte("key"), store.DurableOptions{
			NoSync:   true,
			OnAppend: func(_ uint64, frame []byte, _ telemetry.SpanContext) { frames = append(frames, bytes.Clone(frame)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(sparksim.QuerySpace(), st, secret, 1)
		t.Cleanup(func() { srv.Close(); st.Close() })
		follower, err := store.OpenDurable(t.TempDir(), []byte("key"), store.DurableOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { follower.Close() })

		space := sparksim.QuerySpace()
		r := stats.NewRNG(9)
		jobs := make([]updateJob, sigs)
		for i := range jobs {
			traces := make([]flighting.Trace, rows)
			for j := range traces {
				traces[j] = flighting.Trace{QueryID: "s", Config: space.Random(r), DataSize: 1e9, TimeMs: 1000 + 1000*r.Float64()}
			}
			jobs[i] = updateJob{user: "u", signature: fmt.Sprintf("sig-%03d", i)}
			commitRun(t, st, "u", jobs[i].signature, "j", i, traces)
		}
		// The follower starts where a peer's first catch-up leaves it.
		image, _, err := st.SnapshotImage()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := follower.InstallSnapshot(image); err != nil {
			t.Fatal(err)
		}
		frames = nil
		srv.retrain(jobs...)

		if len(frames) < 2 {
			t.Fatalf("%d models of %d rows took %d record(s), want 2 or more", sigs, rows, len(frames))
		}
		var total int
		for _, f := range frames {
			total += len(f)
			// fleet.DefaultMaxBuffer: a frame past it would force the
			// follower into a snapshot catch-up.
			if len(f) >= 4<<20 {
				t.Errorf("a %d-byte frame overflows a follower's 4 MiB shipping buffer", len(f))
			}
			// A record is cut at the model that reaches maxCommitBytes.
			if len(f) > maxCommitBytes+16<<10 {
				t.Errorf("a %d-byte record ran past the %d-byte cut", len(f), maxCommitBytes)
			}
			if _, err := follower.ApplyReplicated(context.Background(), f); err != nil {
				t.Fatalf("follower refused a round's frame: %v", err)
			}
		}
		if total < maxCommitBytes {
			t.Fatalf("the round wrote %d bytes; the cut was never reached", total)
		}
		if got := len(st.List("models/")); got != sigs {
			t.Fatalf("%d models stored, want %d", got, sigs)
		}
		if follower.Seq() != st.Seq() || !reflect.DeepEqual(follower.Export(), st.Export()) {
			t.Fatalf("follower at seq %d does not match the owner at seq %d", follower.Seq(), st.Seq())
		}
	})
}

// TestUpdaterRoundModelsBitIdentical: a round fits each signature exactly as
// a lone retrain would, so a round of k signatures stores the same model
// bytes as k one-job rounds.
func TestUpdaterRoundModelsBitIdentical(t *testing.T) {
	const k = 6
	round, _ := newServer(t)
	single, _ := newServer(t)
	jobs := make([]updateJob, k)
	for i := range jobs {
		jobs[i] = updateJob{user: "u", signature: fmt.Sprintf("sig-%d", i)}
		traces := traceBatch(4+3*i, uint64(i+1))
		for _, srv := range []*Server{round, single} {
			commitRun(t, srv.Store, "u", jobs[i].signature, "j", 2*i, traces[:4])
			commitRun(t, srv.Store, "u", jobs[i].signature, "j", 2*i+1, traces[4:])
		}
	}
	// Twice, so the second pass scores drift against the first's models.
	for pass := 0; pass < 2; pass++ {
		round.retrain(jobs...)
		for _, j := range jobs {
			single.retrain(j)
		}
	}
	for _, j := range jobs {
		p := store.ModelPath(j.user, j.signature)
		a, errA := round.Store.GetInternal(p)
		b, errB := single.Store.GetInternal(p)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s: round model (%d B, %v) differs from the one-job model (%d B, %v)", p, len(a), errA, len(b), errB)
		}
		ra, _ := round.Explain(j.user, j.signature)
		rb, _ := single.Explain(j.user, j.signature)
		ra.RetrainedUnixMs, rb.RetrainedUnixMs = 0, 0
		if ra != rb {
			t.Errorf("%s: round state %+v, one-job state %+v", j.signature, ra, rb)
		}
	}
}

// orderStore records, in order, each retrain pass's history read (its List
// of the signature's index) with the updater slots still pending then, and
// each model commit. A read of block's index waits on the hold channel:
// the test's point inside a running round.
type orderStore struct {
	ObjectStore
	srv   *Server
	block string
	at    chan struct{}
	hold  chan struct{}

	mu  sync.Mutex
	log []string
}

func (o *orderStore) List(prefix string) []string {
	if rest, ok := strings.CutPrefix(prefix, "index/"); ok {
		o.srv.mu.Lock()
		pending := o.srv.pending
		o.srv.mu.Unlock()
		o.note(fmt.Sprintf("read %s pending=%d", strings.TrimSuffix(rest, "/"), pending))
		if prefix == o.block {
			o.at <- struct{}{}
			<-o.hold
		}
	}
	return o.ObjectStore.List(prefix)
}

func (o *orderStore) Commit(ctx context.Context, entries []store.Entry) error {
	var models []string
	for _, e := range entries {
		if m, ok := strings.CutPrefix(e.Path, "models/"); ok {
			models = append(models, strings.TrimSuffix(m, ".model"))
		}
	}
	if len(models) > 0 {
		o.note("commit " + strings.Join(models, " "))
	}
	return o.ObjectStore.Commit(ctx, entries)
}

func (o *orderStore) note(s string) {
	o.mu.Lock()
	o.log = append(o.log, s)
	o.mu.Unlock()
}

// TestUpdaterRoundYieldsToOtherTenant: a round of one tenant's backlog does
// not hold back another tenant's job that arrives while it runs. The fair
// queue pops the newcomer after at most one more turn of the round's
// tenant; the round commits there, and the newcomer's model is committed
// before the rest of the backlog runs. Each job's updater slot is released
// as its work ends — a coalesced duplicate at once, a pass at its commit —
// not when the round ends.
func TestUpdaterRoundYieldsToOtherTenant(t *testing.T) {
	inner := store.New([]byte("key"))
	o := &orderStore{ObjectStore: inner, block: "index/ua/a0/", at: make(chan struct{}), hold: make(chan struct{})}
	srv := New(sparksim.QuerySpace(), o, secret, 1)
	o.srv = srv
	t.Cleanup(srv.Close)
	var backlog []updateJob
	for i, sig := range []string{"a0", "a0", "a1", "a2", "a3"} {
		commitRun(t, inner, "ua", sig, "ja", i, traceBatch(4, uint64(i+1)))
		backlog = append(backlog, updateJob{user: "ua", signature: sig})
	}
	commitRun(t, inner, "ub", "b0", "jb", 0, traceBatch(4, 9))

	if !srv.tryAdmit(len(backlog)) {
		t.Fatal("backlog not admitted")
	}
	srv.enqueueReserved(backlog...)
	<-o.at // the round is running: a0's pass is reading its history
	if !srv.tryAdmit(1) {
		t.Fatal("newcomer not admitted")
	}
	srv.enqueueReserved(updateJob{user: "ub", signature: "b0"})
	close(o.hold)
	srv.Flush()

	want := []string{
		"read ua/a0 pending=5",
		// ua's next turn pops the duplicate a0, then the pop order
		// crosses to ub: the round ends.
		"commit ua/a0",
		"read ub/b0 pending=4", // b0 admitted; a0 and its duplicate released
		"commit ub/b0",
		"read ua/a1 pending=3",
		"read ua/a2 pending=3",
		"read ua/a3 pending=3",
		"commit ua/a1 ua/a2 ua/a3",
	}
	if !reflect.DeepEqual(o.log, want) {
		t.Errorf("updater order:\n got %q\nwant %q", o.log, want)
	}
	if got := inner.List("models/"); len(got) != 5 {
		t.Errorf("models = %v, want 5", got)
	}
}
