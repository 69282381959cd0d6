package store

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// batchEntries builds n distinct event-file + index-entry pairs shaped like
// the batched ingest endpoint's commits.
func batchEntries(n int) []BatchEntry {
	out := make([]BatchEntry, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out,
			BatchEntry{Path: EventPath("job", i), Data: []byte(fmt.Sprintf("trace-%d", i))},
			BatchEntry{Path: fmt.Sprintf("index/u/sig%03d/job-%06d", i, i)},
		)
	}
	return out
}

// TestPutBatchGroupCommitSingleFsync is the amortization proof: committing
// 512 entries through PutBatch costs exactly ONE WAL append and ONE fsync,
// where the same entries through the single-record path cost one each. Sync
// is deliberately left ON so the fsync histogram counts real syncs.
func TestPutBatchGroupCommitSingleFsync(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	d, err := OpenDurable(t.TempDir(), []byte("k"), DurableOptions{
		Clock:        resilience.NewFakeClock(time.Unix(9000, 0)),
		CompactEvery: -1,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	entries := batchEntries(256) // 512 entries total
	if err := d.PutBatch(entries); err != nil {
		t.Fatal(err)
	}
	if got := d.walAppends.Value(); got != 1 {
		t.Fatalf("512-entry batch cost %v WAL appends; want 1", got)
	}
	if got := d.fsyncSeconds.Count(); got != 1 {
		t.Fatalf("512-entry batch cost %d fsyncs; want 1", got)
	}
	for _, e := range entries {
		blob, err := d.GetInternal(e.Path)
		if err != nil {
			t.Fatalf("entry %s missing after batch commit: %v", e.Path, err)
		}
		if string(blob) != string(e.Data) {
			t.Fatalf("entry %s holds %q; want %q", e.Path, blob, e.Data)
		}
	}

	// The unbatched control: the same number of entries one put at a time
	// costs one fsync per entry.
	for i, e := range entries {
		d.PutInternal("solo/"+e.Path, e.Data)
		if err := d.Err(); err != nil {
			t.Fatalf("solo put %d: %v", i, err)
		}
	}
	if got := d.fsyncSeconds.Count(); got != 1+uint64(len(entries)) {
		t.Fatalf("%d solo puts grew fsync count to %d; want %d", len(entries), got, 1+len(entries))
	}
}

// TestPutBatchReplayEquivalence interleaves batches with singles and
// deletes, exits uncleanly, and asserts pure WAL replay (and then a
// snapshot + reopen) reconstructs byte-identical state.
func TestPutBatchReplayEquivalence(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	clock := resilience.NewFakeClock(time.Unix(9000, 0))
	ref := New([]byte("k"))
	ref.SetClock(clock.Now)
	d := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})

	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	step(commit1(d, "models/u/a.model", []byte("alpha")))
	memPut(ref, "models/u/a.model", []byte("alpha"))
	clock.Advance(time.Minute)
	step(d.PutBatch(batchEntries(3)))
	step(ref.Commit(context.Background(), batchEntries(3)))
	clock.Advance(time.Minute)
	step(d.Delete(EventPath("job", 1)))
	ref.Delete(EventPath("job", 1))
	// A second batch overwrites paths from the first: last write wins.
	step(d.PutBatch([]BatchEntry{{Path: EventPath("job", 0), Data: []byte("rewritten")}}))
	step(ref.Commit(context.Background(), []Entry{{Path: EventPath("job", 0), Data: []byte("rewritten")}}))

	d.abandon()
	reopenAndCompare(t, dir, ref, "WAL replay with batch records")
	// reopenAndCompare wrote this probe under its own clock (Unix 90000).
	ref.putAt("probe/after-recovery", []byte("ok"), time.Unix(90000, 0).UnixNano())

	re := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
	step(re.Compact())
	step(re.Close())
	reopenAndCompare(t, dir, ref, "snapshot containing batch-applied state")
}

// TestPutBatchCrashAtomicity is the no-partial-batch proof: a crash while
// the batch record is being written (a torn group commit) must leave NONE
// of the batch's entries visible after recovery — an acknowledged batch is
// all-in, an unacknowledged one is all-out.
func TestPutBatchCrashAtomicity(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	clock := resilience.NewFakeClock(time.Unix(9000, 0))
	ref := New([]byte("k"))
	ref.SetClock(clock.Now)
	// The first two appends (the acknowledged prefix) survive; the third —
	// the batch — tears mid-record.
	d := mustOpen(t, dir, DurableOptions{
		Clock: clock, CompactEvery: -1, Hooks: fireAt(CrashMidRecord, 3),
	})

	if err := commit1(d, "models/u/a.model", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	memPut(ref, "models/u/a.model", []byte("alpha"))
	if err := commit1(d, "models/u/b.model", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	memPut(ref, "models/u/b.model", []byte("beta"))

	err := d.PutBatch(batchEntries(8))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn batch commit returned %v; want ErrCrashed", err)
	}
	// The latch holds: no later mutation may outrun the broken log.
	if err := d.PutBatch([]BatchEntry{{Path: "late", Data: []byte("x")}}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash batch = %v; want ErrCrashed", err)
	}

	reopenAndCompare(t, dir, ref, "torn batch record")

	re := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
	defer re.Close()
	for _, p := range re.List("") {
		if strings.HasPrefix(p, "events/") || strings.HasPrefix(p, "index/") {
			t.Fatalf("partial batch leaked %s through recovery", p)
		}
	}
}

// TestPutBatchRejectsEmptyPath pins the upfront shape check on both store
// flavors: a bad entry fails the whole batch before any write happens.
func TestPutBatchRejectsEmptyPath(t *testing.T) {
	t.Parallel()
	bad := []BatchEntry{{Path: "ok", Data: []byte("x")}, {Path: ""}}
	mem := New([]byte("k"))
	if err := mem.Commit(context.Background(), bad); err == nil {
		t.Fatal("in-memory Commit accepted an empty path")
	}
	if mem.Len() != 0 {
		t.Fatal("rejected batch still wrote entries")
	}
	d := mustOpen(t, t.TempDir(), DurableOptions{
		Clock: resilience.NewFakeClock(time.Unix(9000, 0)), CompactEvery: -1,
	})
	defer d.Close()
	if err := d.PutBatch(bad); err == nil {
		t.Fatal("durable PutBatch accepted an empty path")
	}
	if d.Len() != 0 {
		t.Fatal("rejected batch still wrote entries")
	}
	if err := d.Err(); err != nil {
		t.Fatalf("shape rejection must not latch the store: %v", err)
	}
	if err := d.PutBatch(nil); err != nil {
		t.Fatalf("empty batch must be a no-op, got %v", err)
	}
}
