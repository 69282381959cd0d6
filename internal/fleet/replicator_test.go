package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

var testSecret = []byte("fleet-test-secret")

// openReplicated opens an owner store whose OnAppend tap feeds a new
// replicator built with opts.
func openReplicated(t *testing.T, opts ReplicatorOptions) (*store.DurableStore, *Replicator) {
	t.Helper()
	var repl *Replicator
	owner, err := store.OpenDurable(t.TempDir(), testSecret, store.DurableOptions{
		OnAppend: func(seq uint64, frame []byte, sc telemetry.SpanContext) { repl.Observe(seq, frame, sc) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { owner.Close() })
	repl = NewReplicator(owner, opts)
	return owner, repl
}

func openFollower(t *testing.T) *store.DurableStore {
	t.Helper()
	f, err := store.OpenDurable(t.TempDir(), testSecret, store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// wantSameState asserts two stores expose byte-identical object state.
func wantSameState(t *testing.T, label string, a, b *store.DurableStore) {
	t.Helper()
	ea, eb := a.Export(), b.Export()
	sort.Slice(ea, func(i, j int) bool { return ea[i].Path < ea[j].Path })
	sort.Slice(eb, func(i, j int) bool { return eb[i].Path < eb[j].Path })
	if len(ea) != len(eb) {
		t.Fatalf("%s: %d objects vs %d", label, len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Path != eb[i].Path {
			t.Fatalf("%s: path %q vs %q", label, ea[i].Path, eb[i].Path)
		}
		if !bytes.Equal(ea[i].Data, eb[i].Data) {
			t.Fatalf("%s: %s: data differs", label, ea[i].Path)
		}
		if !ea[i].Created.Equal(eb[i].Created) {
			t.Fatalf("%s: %s: created %v vs %v", label, ea[i].Path, ea[i].Created, eb[i].Created)
		}
	}
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestReplicatorShipsToFollowers(t *testing.T) {
	owner, repl := openReplicated(t, ReplicatorOptions{})
	f1, f2 := openFollower(t), openFollower(t)
	repl.AddPeer("f1", StorePeer{Store: f1})
	repl.AddPeer("f2", StorePeer{Store: f2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	repl.Start(ctx)

	for i := 0; i < 40; i++ {
		owner.PutInternal(fmt.Sprintf("events/sig-%03d", i), []byte(fmt.Sprintf("payload-%d", i)))
	}
	if err := repl.WaitReplicated(waitCtx(t), owner.Seq()); err != nil {
		t.Fatalf("WaitReplicated: %v", err)
	}
	wantSameState(t, "f1", owner, f1)
	wantSameState(t, "f2", owner, f2)
	for id, lag := range repl.Lag() {
		if lag != 0 {
			t.Fatalf("peer %s lag = %d after full ack", id, lag)
		}
	}

	// A second round exercises the frame path (the first round may be
	// absorbed whole by the initial snapshot catch-up).
	for i := 0; i < 10; i++ {
		owner.PutInternal(fmt.Sprintf("events/late-%03d", i), []byte("late"))
	}
	if err := repl.WaitReplicated(waitCtx(t), owner.Seq()); err != nil {
		t.Fatalf("WaitReplicated round 2: %v", err)
	}
	wantSameState(t, "f1 round 2", owner, f1)
	wantSameState(t, "f2 round 2", owner, f2)
}

// flakyPeer fails the first fail calls of each kind, then delegates.
type flakyPeer struct {
	inner Peer
	mu    sync.Mutex
	fail  int
}

func (p *flakyPeer) Replicate(ctx context.Context, frames []byte) (uint64, error) {
	p.mu.Lock()
	if p.fail > 0 {
		p.fail--
		p.mu.Unlock()
		return 0, errors.New("transient transport failure")
	}
	p.mu.Unlock()
	return p.inner.Replicate(ctx, frames)
}

func (p *flakyPeer) InstallSnapshot(ctx context.Context, image []byte) (uint64, error) {
	p.mu.Lock()
	if p.fail > 0 {
		p.fail--
		p.mu.Unlock()
		return 0, errors.New("transient transport failure")
	}
	p.mu.Unlock()
	return p.inner.InstallSnapshot(ctx, image)
}

func TestReplicatorRetriesTransientFailures(t *testing.T) {
	clock := resilience.NewFakeClock(time.Unix(0, 0))
	owner, repl := openReplicated(t, ReplicatorOptions{Clock: clock})
	f := openFollower(t)
	repl.AddPeer("f", &flakyPeer{inner: StorePeer{Store: f}, fail: 3})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	repl.Start(ctx)

	for i := 0; i < 20; i++ {
		owner.PutInternal(fmt.Sprintf("events/sig-%03d", i), []byte("x"))
	}
	if err := repl.WaitReplicated(waitCtx(t), owner.Seq()); err != nil {
		t.Fatalf("WaitReplicated: %v", err)
	}
	wantSameState(t, "after retries", owner, f)
}

// gatedPeer blocks every call until release is closed.
type gatedPeer struct {
	inner   Peer
	release chan struct{}
}

func (p *gatedPeer) Replicate(ctx context.Context, frames []byte) (uint64, error) {
	select {
	case <-p.release:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return p.inner.Replicate(ctx, frames)
}

func (p *gatedPeer) InstallSnapshot(ctx context.Context, image []byte) (uint64, error) {
	select {
	case <-p.release:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return p.inner.InstallSnapshot(ctx, image)
}

func TestReplicatorOverflowFallsBackToSnapshot(t *testing.T) {
	reg := telemetry.NewRegistry()
	owner, repl := openReplicated(t, ReplicatorOptions{Metrics: reg, MaxBuffer: 256})
	f := openFollower(t)
	gate := &gatedPeer{inner: StorePeer{Store: f}, release: make(chan struct{})}
	repl.AddPeer("f", gate)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	repl.Start(ctx)

	// Far more than 256 bytes of frames while the peer is unreachable: the
	// buffer is dropped and the peer queued for snapshot catch-up.
	for i := 0; i < 100; i++ {
		owner.PutInternal(fmt.Sprintf("events/sig-%03d", i), bytes.Repeat([]byte("v"), 64))
	}
	close(gate.release)
	if err := repl.WaitReplicated(waitCtx(t), owner.Seq()); err != nil {
		t.Fatalf("WaitReplicated: %v", err)
	}
	wantSameState(t, "after overflow", owner, f)

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := telemetry.ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	catchups := 0.0
	for _, fam := range fams {
		if fam.Name != "rockhopper_fleet_snapshot_catchups_total" {
			continue
		}
		for _, s := range fam.Series {
			if s.Labels["peer"] == "f" {
				catchups = s.Value
			}
		}
	}
	if catchups < 1 {
		t.Fatalf("snapshot catch-ups = %v, want >= 1", catchups)
	}
}

// TestReplicatorCountsRecordsNotNewlines: a shipped frame is a binary
// record that may hold any byte, so the replicated-records counter counts
// the records Observe buffered, not the 0x0A bytes in the batch. One record
// whose payload is all newlines counts once.
func TestReplicatorCountsRecordsNotNewlines(t *testing.T) {
	reg := telemetry.NewRegistry()
	owner, repl := openReplicated(t, ReplicatorOptions{Metrics: reg})
	f := openFollower(t)
	repl.AddPeer("f", StorePeer{Store: f})
	// Buffered before Start: the peer's snapshot catch-up comes first, then
	// this one frame is shipped (and skipped by the follower as redelivered).
	if err := owner.Commit(context.Background(), []store.Entry{{Path: "events/sig", Data: bytes.Repeat([]byte{'\n'}, 300)}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	repl.Start(ctx)
	if err := repl.WaitReplicated(waitCtx(t), owner.Seq()); err != nil {
		t.Fatalf("WaitReplicated: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	shipped := metricValue(t, reg, "rockhopper_fleet_replicated_records_total", "f")
	for shipped == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		shipped = metricValue(t, reg, "rockhopper_fleet_replicated_records_total", "f")
	}
	if shipped != 1 {
		t.Fatalf("replicated records = %v after shipping one record; want 1", shipped)
	}
	wantSameState(t, "after the newline record", owner, f)
}

// metricValue reads the named series of peer from reg's exposition.
func metricValue(t *testing.T, reg *telemetry.Registry, name, peer string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := telemetry.ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range fams {
		for _, s := range fam.Series {
			if fam.Name == name && s.Labels["peer"] == peer {
				return s.Value
			}
		}
	}
	return 0
}

func TestWaitReplicatedCancelAndStop(t *testing.T) {
	owner, repl := openReplicated(t, ReplicatorOptions{})
	f := openFollower(t)
	gate := &gatedPeer{inner: StorePeer{Store: f}, release: make(chan struct{})}
	repl.AddPeer("stuck", gate)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	repl.Start(ctx)

	owner.PutInternal("events/sig", []byte("x"))

	short, shortCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer shortCancel()
	if err := repl.WaitReplicated(short, owner.Seq()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitReplicated with stuck peer = %v, want deadline exceeded", err)
	}

	repl.Stop()
	if err := repl.WaitReplicated(context.Background(), owner.Seq()); !errors.Is(err, ErrReplicatorStopped) {
		t.Fatalf("WaitReplicated after Stop = %v, want ErrReplicatorStopped", err)
	}
}

func TestWaitReplicatedNoPeers(t *testing.T) {
	owner, repl := openReplicated(t, ReplicatorOptions{})
	owner.PutInternal("events/sig", []byte("x"))
	if err := repl.WaitReplicated(context.Background(), owner.Seq()); err != nil {
		t.Fatalf("single-node WaitReplicated = %v, want nil", err)
	}
}

// discardTransport answers every request with a 200 replicate ack after
// draining the body, so a test sees only what the sender allocates.
type discardTransport struct{}

func (discardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader(`{"seq":1}`)),
		Request:    req,
	}, nil
}

// TestReplicatorHTTPPeerShipsWithoutCopy: the HTTP peer sends a frame batch
// or a snapshot image as the request body without copying it. A shipment is
// up to a whole snapshot image, so a copy per send would double the bytes a
// catch-up allocates.
func TestReplicatorHTTPPeerShipsWithoutCopy(t *testing.T) {
	peer := &httpPeer{client: &http.Client{Transport: discardTransport{}}, base: "http://follower", from: "a", secret: "s"}
	body := bytes.Repeat([]byte{'x'}, 1<<20)
	ctx := context.Background()
	if _, err := peer.Replicate(ctx, body); err != nil {
		t.Fatal(err)
	}
	const calls = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := peer.Replicate(ctx, body); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if perCall > 64<<10 {
		t.Fatalf("Replicate of a 1 MiB batch allocated %d B per call; the body is being copied", perCall)
	}
	t.Logf("%d B allocated per 1 MiB Replicate", perCall)
}
