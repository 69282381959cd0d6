package store

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/stats"
)

// TestPropertyReplayEquivalence is the replay-equivalence property: for a
// random operation trace (one- and many-entry commits with and without
// caller-supplied timestamps, deletes, sweeps), three executions — an in-memory reference, a
// durable store that only ever appends to its WAL, and a durable store that
// compacts aggressively mid-trace — must agree on final state, and both
// durable flavors must still agree after an unclean reopen (pure WAL replay
// versus snapshot + WAL-suffix replay). Trials split deterministically from
// per-seed root RNGs, so any failure reproduces from its seed and index.
func TestPropertyReplayEquivalence(t *testing.T) {
	t.Parallel()
	trials := 334
	if testing.Short() {
		trials = 25
	}
	for _, seed := range []uint64{101, 202, 303} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			root := stats.NewRNG(seed)
			for trial := 0; trial < trials; trial++ {
				r := root.SplitIndexed(uint64(trial))
				runEquivalenceTrial(t, r, seed, trial)
				if t.Failed() {
					return
				}
			}
		})
	}
}

func runEquivalenceTrial(t *testing.T, r *stats.RNG, seed uint64, trial int) {
	t.Helper()
	ctx := context.Background()
	clock := resilience.NewFakeClock(time.Unix(int64(60000+trial), 0))
	ref := New([]byte("k"))
	ref.SetClock(clock.Now)
	walDir, mixDir := t.TempDir(), t.TempDir()
	walOnly := mustOpen(t, walDir, DurableOptions{Clock: clock, CompactEvery: -1})
	mixed := mustOpen(t, mixDir, DurableOptions{Clock: clock, CompactEvery: 3})

	paths := []string{
		EventPath("job-a", 0), EventPath("job-b", 0),
		ModelPath("u1", "sig-1"), ModelPath("u1", "sig-2"),
		ArtifactPath("art", "blob.bin"), AppCachePath,
		"index/u1/sig-1/job-a-000000",
	}
	label := func(op string, i int) string {
		return fmt.Sprintf("seed %d trial %d op %d (%s)", seed, trial, i, op)
	}
	nops := 5 + r.Intn(21)
	for i := 0; i < nops; i++ {
		clock.Advance(time.Duration(1+r.Intn(900)) * time.Second)
		p := paths[r.Intn(len(paths))]
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			entries := randomCommit(r, paths, clock.Now(), i)
			for _, err := range []error{ref.Commit(ctx, entries), walOnly.Commit(ctx, entries), mixed.Commit(ctx, entries)} {
				if err != nil {
					t.Fatalf("%s: %v", label("commit", i), err)
				}
			}
		case 6, 7:
			for _, err := range []error{walOnly.Delete(p), mixed.Delete(p)} {
				if err != nil {
					t.Fatalf("%s: %v", label("del", i), err)
				}
			}
			ref.Delete(p)
		case 8:
			ret := time.Duration(1+r.Intn(48)) * time.Hour
			nr, nw, nm := ref.CleanupOlderThan(ret), walOnly.CleanupOlderThan(ret), mixed.CleanupOlderThan(ret)
			if nr != nw || nr != nm {
				t.Fatalf("%s: reaped %d/%d/%d (ref/wal/mixed)", label("sweep", i), nr, nw, nm)
			}
		default:
			if err := mixed.Compact(); err != nil {
				t.Fatalf("%s: %v", label("compact", i), err)
			}
		}
	}
	wantSameState(t, label("final wal-only", nops), ref, walOnly)
	wantSameState(t, label("final mixed", nops), ref, mixed)

	// Unclean reopen: walOnly recovers from a pure log, mixed from a
	// snapshot plus WAL suffix. Both must reconstruct the reference.
	walOnly.abandon()
	mixed.abandon()
	reWAL := mustOpen(t, walDir, DurableOptions{Clock: clock, CompactEvery: -1})
	reMix := mustOpen(t, mixDir, DurableOptions{Clock: clock, CompactEvery: 3})
	wantSameState(t, label("reopen wal-only", nops), ref, reWAL)
	wantSameState(t, label("reopen mixed", nops), ref, reMix)

	// The recovered stores must keep accepting and agreeing on mutations.
	clock.Advance(time.Minute)
	post := []byte(fmt.Sprintf("post-%d-%d", seed, trial))
	for _, err := range []error{commit1(reWAL, paths[0], post), commit1(reMix, paths[0], post)} {
		if err != nil {
			t.Fatalf("%s: %v", label("post-reopen put", nops), err)
		}
	}
	ref.PutInternal(paths[0], post)
	if !reflect.DeepEqual(exportOf(reWAL), exportOf(reMix)) {
		t.Fatalf("%s: recovered stores diverged from each other", label("post-reopen", nops))
	}
	wantSameState(t, label("post-reopen", nops), ref, reWAL)
	if err := reWAL.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reMix.Close(); err != nil {
		t.Fatal(err)
	}
}
