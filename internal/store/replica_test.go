package store

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/stats"

	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// frameTap collects OnAppend frames the way the fleet replicator does:
// copied immediately, in order.
type frameTap struct {
	frames [][]byte
}

func (ft *frameTap) observe(seq uint64, frame []byte, sc telemetry.SpanContext) {
	ft.frames = append(ft.frames, append([]byte(nil), frame...))
}

// batch concatenates a run of captured frames into one shippable payload.
func (ft *frameTap) batch(from, to int) []byte {
	var out []byte
	for _, f := range ft.frames[from:to] {
		out = append(out, f...)
	}
	return out
}

// wantExportsEqual asserts two durable stores hold byte-identical state via
// the exported replication surface.
func wantExportsEqual(t *testing.T, label string, owner, follower *DurableStore) {
	t.Helper()
	if a, b := owner.Export(), follower.Export(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: exports diverge:\n owner=%+v\n follower=%+v", label, a, b)
	}
}

func TestReplicaApplyFramesAndRedelivery(t *testing.T) {
	t.Parallel()
	clock := resilience.NewFakeClock(time.Unix(70000, 0))
	tap := &frameTap{}
	owner := mustOpen(t, t.TempDir(), DurableOptions{Clock: clock, CompactEvery: -1, OnAppend: tap.observe})
	follower := mustOpen(t, t.TempDir(), DurableOptions{Clock: clock, CompactEvery: -1})
	defer owner.Close()
	defer follower.Close()

	owner.PutInternal(ModelPath("u", "s1"), []byte("m1"))
	clock.Advance(time.Second)
	owner.PutInternal(EventPath("j", 0), []byte("e0"))
	if err := owner.Delete(EventPath("j", 0)); err != nil {
		t.Fatal(err)
	}
	if len(tap.frames) != 3 {
		t.Fatalf("captured %d frames, want 3", len(tap.frames))
	}

	seq, err := follower.ApplyReplicated(context.Background(), tap.batch(0, 2))
	if err != nil || seq != 2 {
		t.Fatalf("apply [0,2): seq=%d err=%v", seq, err)
	}
	// Redelivered prefix plus the new suffix: dups are skipped, tail applies.
	seq, err = follower.ApplyReplicated(context.Background(), tap.batch(0, 3))
	if err != nil || seq != 3 {
		t.Fatalf("apply redelivered [0,3): seq=%d err=%v", seq, err)
	}
	wantExportsEqual(t, "after redelivery", owner, follower)
	if got := follower.Seq(); got != owner.Seq() {
		t.Fatalf("follower seq %d, owner seq %d", got, owner.Seq())
	}
}

func TestReplicaGapDetectedAndSnapshotCatchUp(t *testing.T) {
	t.Parallel()
	clock := resilience.NewFakeClock(time.Unix(70100, 0))
	tap := &frameTap{}
	owner := mustOpen(t, t.TempDir(), DurableOptions{Clock: clock, CompactEvery: -1, OnAppend: tap.observe})
	followerDir := t.TempDir()
	follower := mustOpen(t, followerDir, DurableOptions{Clock: clock, CompactEvery: -1})
	defer owner.Close()

	for i := 0; i < 6; i++ {
		clock.Advance(time.Second)
		owner.PutInternal(EventPath("j", i), []byte(fmt.Sprintf("e%d", i)))
	}
	// Ship only the tail: the follower must refuse it, nothing applied.
	if seq, err := follower.ApplyReplicated(context.Background(), tap.batch(4, 6)); !errors.Is(err, ErrReplicaGap) || seq != 0 {
		t.Fatalf("gap apply: seq=%d err=%v, want seq=0 ErrReplicaGap", seq, err)
	}
	if follower.Len() != 0 {
		t.Fatalf("gap apply leaked %d object(s) into the follower", follower.Len())
	}

	image, snapSeq, err := owner.SnapshotImage()
	if err != nil || snapSeq != 6 {
		t.Fatalf("snapshot image: seq=%d err=%v", snapSeq, err)
	}
	if seq, err := follower.InstallSnapshot(image); err != nil || seq != 6 {
		t.Fatalf("install snapshot: seq=%d err=%v", seq, err)
	}
	wantExportsEqual(t, "after catch-up", owner, follower)

	// Frame shipping resumes from the snapshot's sequence number.
	clock.Advance(time.Second)
	owner.PutInternal(ModelPath("u", "s"), []byte("post-snap"))
	if seq, err := follower.ApplyReplicated(context.Background(), tap.batch(6, 7)); err != nil || seq != 7 {
		t.Fatalf("post-snapshot apply: seq=%d err=%v", seq, err)
	}
	wantExportsEqual(t, "post-snapshot", owner, follower)

	// The installed snapshot plus applied frames survive an unclean reopen.
	follower.abandon()
	re := mustOpen(t, followerDir, DurableOptions{Clock: clock, CompactEvery: -1})
	defer re.Close()
	wantExportsEqual(t, "follower reopen", owner, re)
}

// TestInstallSnapshotThenList: a follower that caught up by snapshot must be
// as visible to List and Len as it is to Export and GetInternal — what it
// held before the install gone from all four — and stay so when replicated
// frames land on top of the installed image.
func TestInstallSnapshotThenList(t *testing.T) {
	t.Parallel()
	clock := resilience.NewFakeClock(time.Unix(70150, 0))
	tap := &frameTap{}
	owner := mustOpen(t, t.TempDir(), DurableOptions{Clock: clock, CompactEvery: -1, OnAppend: tap.observe})
	follower := mustOpen(t, t.TempDir(), DurableOptions{Clock: clock, CompactEvery: -1})
	defer owner.Close()
	defer follower.Close()

	owner.PutInternal(EventPath("j", 0), []byte("e0"))
	if _, err := follower.ApplyReplicated(context.Background(), tap.batch(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := owner.Delete(EventPath("j", 0)); err != nil {
		t.Fatal(err)
	}
	if err := owner.PutBatch([]Entry{{Path: EventPath("j", 1), Data: []byte("e1")}, {Path: "index/u/s/j-000001"}}); err != nil {
		t.Fatal(err)
	}
	agree := func(label string) {
		t.Helper()
		wantExportsEqual(t, label, owner, follower)
		if o, f := owner.List(""), follower.List(""); !reflect.DeepEqual(o, f) {
			t.Fatalf("%s: List diverges:\n owner=%v\n follower=%v", label, o, f)
		}
		exp := follower.Export()
		if follower.Len() != len(exp) {
			t.Fatalf("%s: Len = %d, Export holds %d", label, follower.Len(), len(exp))
		}
		for i, p := range follower.List("") {
			if got, err := follower.GetInternal(p); err != nil || p != exp[i].Path || string(got) != string(exp[i].Data) {
				t.Fatalf("%s: List[%d] = %q reads (%q, %v); Export[%d] = %q %q", label, i, p, got, err, i, exp[i].Path, exp[i].Data)
			}
		}
	}
	image, _, err := owner.SnapshotImage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.InstallSnapshot(image); err != nil {
		t.Fatal(err)
	}
	agree("after install")
	if got, want := follower.List("events/"), []string{EventPath("j", 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List(events/) after install = %v, want %v", got, want)
	}

	owner.PutInternal(EventPath("j", 2), []byte("e2"))
	owner.PutInternal(ModelPath("u", "s"), []byte("m"))
	if err := owner.Delete(EventPath("j", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ApplyReplicated(context.Background(), tap.batch(3, 6)); err != nil {
		t.Fatal(err)
	}
	agree("frames on top of the installed image")
}

func TestReplicaSnapshotRewindRefused(t *testing.T) {
	t.Parallel()
	clock := resilience.NewFakeClock(time.Unix(70200, 0))
	d := mustOpen(t, t.TempDir(), DurableOptions{Clock: clock, CompactEvery: -1})
	defer d.Close()
	d.PutInternal("a", []byte("1"))
	stale, _, err := d.SnapshotImage()
	if err != nil {
		t.Fatal(err)
	}
	d.PutInternal("b", []byte("2"))
	if _, err := d.InstallSnapshot(stale); err == nil {
		t.Fatal("installing a stale snapshot succeeded; replication must never rewind")
	}
	if _, err := d.GetInternal("b"); err != nil {
		t.Fatalf("state damaged by refused rewind: %v", err)
	}
}

func TestCommitPreservesTimestampsIdempotently(t *testing.T) {
	t.Parallel()
	clock := resilience.NewFakeClock(time.Unix(70300, 0))
	src := mustOpen(t, t.TempDir(), DurableOptions{Clock: clock, CompactEvery: -1})
	dst := mustOpen(t, t.TempDir(), DurableOptions{Clock: clock, CompactEvery: -1})
	defer src.Close()
	defer dst.Close()

	src.PutInternal(EventPath("j", 0), []byte("old"))
	clock.Advance(48 * time.Hour)
	src.PutInternal(ModelPath("u", "s"), []byte("new"))

	for range [2]int{} { // absorbing twice must be a no-op the second time
		if err := dst.Commit(context.Background(), src.Export()); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := src.Export(), dst.Export(); !reflect.DeepEqual(a, b) {
		t.Fatalf("absorbed state diverges:\n src=%+v\n dst=%+v", a, b)
	}
	// The preserved timestamp keeps retention behavior identical: the old
	// event is already past a 24h window on both stores.
	if n := dst.CleanupOlderThan(24 * time.Hour); n != 1 {
		t.Fatalf("retention on absorbed store reaped %d, want 1", n)
	}
}

// TestPropertyTwoNodeReplicationEquivalence extends the PR 4
// replay-equivalence property to a two-node topology: an owner executes a
// random mutation trace while log-shipping frames (in randomly sized
// batches, with random redelivery and random follower outages that force
// snapshot catch-up) to a follower. After the trace the follower must hold
// byte-identical state; after the owner dies and the follower reopens
// uncleanly — the promote path — the follower's replayed state must still
// be byte-identical to the dead owner's durable state.
func TestPropertyTwoNodeReplicationEquivalence(t *testing.T) {
	t.Parallel()
	trials := 120
	if testing.Short() {
		trials = 15
	}
	for _, seed := range []uint64{404, 505} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			root := stats.NewRNG(seed)
			for trial := 0; trial < trials; trial++ {
				r := root.SplitIndexed(uint64(trial))
				runTwoNodeTrial(t, r, seed, trial)
				if t.Failed() {
					return
				}
			}
		})
	}
}

func runTwoNodeTrial(t *testing.T, r *stats.RNG, seed uint64, trial int) {
	t.Helper()
	clock := resilience.NewFakeClock(time.Unix(int64(80000+trial), 0))
	tap := &frameTap{}
	ownerDir, followerDir := t.TempDir(), t.TempDir()
	owner := mustOpen(t, ownerDir, DurableOptions{Clock: clock, CompactEvery: 5, OnAppend: tap.observe})
	follower := mustOpen(t, followerDir, DurableOptions{Clock: clock, CompactEvery: 7})

	label := func(step string) string {
		return fmt.Sprintf("seed %d trial %d: %s", seed, trial, step)
	}
	paths := []string{
		EventPath("job-a", 0), EventPath("job-b", 1),
		ModelPath("u1", "sig-1"), ModelPath("u2", "sig-2"),
		ArtifactPath("art", "blob.bin"),
	}
	shipped := 0 // frames delivered to the follower so far
	ship := func(to int) {
		t.Helper()
		if to <= shipped {
			return
		}
		from := shipped
		if r.Intn(4) == 0 && from > 0 {
			from-- // redeliver the previous frame: dup-skip must hold
		}
		seq, err := follower.ApplyReplicated(context.Background(), tap.batch(from, to))
		if errors.Is(err, ErrReplicaGap) {
			image, _, serr := owner.SnapshotImage()
			if serr != nil {
				t.Fatalf("%s: %v", label("snapshot image"), serr)
			}
			if _, serr := follower.InstallSnapshot(image); serr != nil {
				t.Fatalf("%s: %v", label("install snapshot"), serr)
			}
			shipped = len(tap.frames) // snapshot covers every captured frame
			return
		}
		if err != nil {
			t.Fatalf("%s: seq=%d err=%v", label("apply"), seq, err)
		}
		shipped = to
	}

	nops := 6 + r.Intn(24)
	for i := 0; i < nops; i++ {
		clock.Advance(time.Duration(1+r.Intn(600)) * time.Second)
		p := paths[r.Intn(len(paths))]
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			if err := owner.Commit(context.Background(), randomCommit(r, paths, clock.Now(), i)); err != nil {
				t.Fatalf("%s: %v", label("commit"), err)
			}
		case 6:
			if err := owner.Delete(p); err != nil {
				t.Fatalf("%s: %v", label("del"), err)
			}
		case 7:
			owner.CleanupOlderThan(time.Duration(1+r.Intn(12)) * time.Hour)
		case 8:
			// Follower outage: a run of frames is lost in flight. The next
			// delivery must detect the gap and trigger snapshot catch-up.
			if len(tap.frames) > shipped {
				shipped = len(tap.frames)
			}
		default:
			if err := owner.Compact(); err != nil {
				t.Fatalf("%s: %v", label("compact"), err)
			}
		}
		if r.Intn(3) == 0 {
			ship(len(tap.frames))
		}
	}
	ship(len(tap.frames))
	// An outage on the final op can leave the follower behind with no
	// delivery left to expose the gap; the drain below is the catch-up.
	if follower.Seq() != owner.Seq() {
		image, _, err := owner.SnapshotImage()
		if err != nil {
			t.Fatalf("%s: %v", label("final snapshot"), err)
		}
		if _, err := follower.InstallSnapshot(image); err != nil {
			t.Fatalf("%s: %v", label("final install"), err)
		}
	}
	wantExportsEqual(t, label("synced"), owner, follower)

	// Owner dies; follower reopens uncleanly (the promote path) and must
	// replay to state byte-identical to the dead owner's durable state.
	owner.abandon()
	follower.abandon()
	deadOwner := mustOpen(t, ownerDir, DurableOptions{Clock: clock, CompactEvery: -1})
	promoted := mustOpen(t, followerDir, DurableOptions{Clock: clock, CompactEvery: -1})
	wantExportsEqual(t, label("promoted"), deadOwner, promoted)

	// The promoted store absorbs into a fresh survivor via Commit; the
	// survivor must agree byte-for-byte, timestamps included.
	survivor := mustOpen(t, t.TempDir(), DurableOptions{Clock: clock, CompactEvery: -1})
	export := promoted.Export()
	for len(export) > 0 {
		n := 3
		if n > len(export) {
			n = len(export)
		}
		if err := survivor.Commit(context.Background(), export[:n]); err != nil {
			t.Fatalf("%s: %v", label("absorb"), err)
		}
		export = export[n:]
	}
	wantExportsEqual(t, label("absorbed"), promoted, survivor)
	for _, d := range []*DurableStore{deadOwner, promoted, survivor} {
		if err := d.Close(); err != nil {
			t.Fatalf("%s: %v", label("close"), err)
		}
	}
}
