package store

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

// The crash matrix drives a fixed mutation trace into a durable store,
// kills it at every (crash point × operation index) combination via the
// injector, reopens the directory, and asserts the recovered state is
// prefix-consistent: exactly the acknowledged mutations, nothing else.

var errBoom = errors.New("boom")

type traceOp struct {
	del  bool
	path string
	data string
}

var matrixOps = []traceOp{
	{path: "models/u/a.model", data: "alpha-1"},
	{path: "events/j/run-000000.jsonl", data: "e0"},
	{path: "models/u/a.model", data: "alpha-2"}, // overwrite
	{del: true, path: "events/j/run-000000.jsonl"},
	{path: "index/u/sig/j-000000"},
	{path: "models/u/b.model", data: "beta"},
	{del: true, path: "models/u/a.model"},
	{path: "appcache/app_cache.json", data: "cache"},
}

// fireAt returns an injector that crashes on the n-th visit to point.
func fireAt(point CrashPoint, n int) func(CrashPoint) error {
	seen := 0
	return func(p CrashPoint) error {
		if p != point {
			return nil
		}
		seen++
		if seen == n {
			return errBoom
		}
		return nil
	}
}

// applyOp sends one trace op to a durable store (error returned) and, when
// acked is true, mirrors it into the in-memory reference.
func applyOp(d *DurableStore, op traceOp) error {
	if op.del {
		return d.Delete(op.path)
	}
	return commit1(d, op.path, []byte(op.data))
}

func mirrorOp(ref *Store, op traceOp) {
	if op.del {
		ref.Delete(op.path)
	} else {
		memPut(ref, op.path, []byte(op.data))
	}
}

// runCrashTrace applies matrixOps to a durable store in dir with the given
// injector, mirroring every acknowledged op into a reference store, and
// returns the reference plus how many ops were acknowledged. Both stores
// share one fake clock so creation timestamps line up exactly.
func runCrashTrace(t *testing.T, dir string, hooks func(CrashPoint) error, compactEvery int) (*Store, int) {
	t.Helper()
	clock := resilience.NewFakeClock(time.Unix(30000, 0))
	ref := New([]byte("k"))
	ref.SetClock(clock.Now)
	d := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: compactEvery, Hooks: hooks})
	acked := 0
	for _, op := range matrixOps {
		clock.Advance(time.Minute)
		if err := applyOp(d, op); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("op %d failed with %v; want ErrCrashed", acked, err)
			}
			// A dead store must stay dead: no later mutation may sneak in.
			if err := commit1(d, "models/u/late.model", []byte("x")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-crash put = %v; want ErrCrashed", err)
			}
			return ref, acked
		}
		mirrorOp(ref, op)
		acked++
	}
	d.abandon()
	return ref, acked
}

// reopenAndCompare recovers dir and asserts it matches the reference.
func reopenAndCompare(t *testing.T, dir string, ref *Store, label string) {
	t.Helper()
	clock := resilience.NewFakeClock(time.Unix(90000, 0))
	re := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
	defer re.Close()
	if got, want := exportOf(re), exportOf(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: recovery diverged from acknowledged prefix:\n got=%+v\n want=%+v", label, got, want)
	}
	// Recovery must leave a writable log behind: the next mutation appends
	// cleanly past any truncated tail.
	if err := commit1(re, "probe/after-recovery", []byte("ok")); err != nil {
		t.Fatalf("%s: store not writable after recovery: %v", label, err)
	}
}

// TestCrashMatrixWAL kills the store at every WAL crash point before every
// mutation of the trace: the recovered state must hold exactly the
// acknowledged prefix (the crashed mutation wholly absent, torn records
// dropped).
func TestCrashMatrixWAL(t *testing.T) {
	t.Parallel()
	for _, point := range []CrashPoint{CrashPreWrite, CrashMidRecord} {
		for k := 1; k <= len(matrixOps); k++ {
			point, k := point, k
			t.Run(fmt.Sprintf("%s/op-%d", point, k), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				ref, acked := runCrashTrace(t, dir, fireAt(point, k), -1)
				if acked != k-1 {
					t.Fatalf("acked %d ops; want %d", acked, k-1)
				}
				reopenAndCompare(t, dir, ref, point.String())
			})
		}
	}
}

// TestCrashMatrixWALWithInterleavedSnapshots repeats the WAL matrix with
// record-count compaction every 3 records, so recovery exercises
// snapshot + WAL-suffix replay rather than a pure log.
func TestCrashMatrixWALWithInterleavedSnapshots(t *testing.T) {
	t.Parallel()
	for _, point := range []CrashPoint{CrashPreWrite, CrashMidRecord} {
		for k := 1; k <= len(matrixOps); k++ {
			point, k := point, k
			t.Run(fmt.Sprintf("%s/op-%d", point, k), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				ref, acked := runCrashTrace(t, dir, fireAt(point, k), 3)
				if acked != k-1 {
					t.Fatalf("acked %d ops; want %d", acked, k-1)
				}
				reopenAndCompare(t, dir, ref, point.String())
			})
		}
	}
}

// TestCrashMatrixSnapshot kills the store around the snapshot rename after
// every prefix of the trace. Both sides of the rename must recover the
// full acknowledged state: before it via old snapshot + intact WAL, after
// it via the new snapshot (skipping the stale WAL records it covers).
func TestCrashMatrixSnapshot(t *testing.T) {
	t.Parallel()
	for _, point := range []CrashPoint{CrashPreRename, CrashPostRename} {
		for k := 1; k <= len(matrixOps); k++ {
			point, k := point, k
			t.Run(fmt.Sprintf("%s/after-op-%d", point, k), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				clock := resilience.NewFakeClock(time.Unix(30000, 0))
				ref := New([]byte("k"))
				ref.SetClock(clock.Now)
				d := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1, Hooks: fireAt(point, 1)})
				for i := 0; i < k; i++ {
					clock.Advance(time.Minute)
					if err := applyOp(d, matrixOps[i]); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					mirrorOp(ref, matrixOps[i])
				}
				if err := d.Compact(); !errors.Is(err, ErrCrashed) {
					t.Fatalf("Compact = %v; want injected ErrCrashed", err)
				}
				reopenAndCompare(t, dir, ref, point.String())
			})
		}
	}
}

// TestCrashMatrixTranscode kills the open-time rewrite of a legacy data
// directory on both sides of each file's rename: the snapshot is rewritten
// first (visit 1), then the WAL (visit 2). Every crash leaves each file
// either legacy or binary, never torn, so the next open finishes the job
// and serves the legacy state.
func TestCrashMatrixTranscode(t *testing.T) {
	t.Parallel()
	for _, point := range []CrashPoint{CrashPreRename, CrashPostRename} {
		for _, visit := range []int{1, 2} {
			point, visit := point, visit
			t.Run(fmt.Sprintf("%s/visit-%d", point, visit), func(t *testing.T) {
				t.Parallel()
				dir := copyLegacyDir(t)
				_, err := OpenDurable(dir, []byte("k"), DurableOptions{NoSync: true, CompactEvery: -1, Hooks: fireAt(point, visit)})
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("open = %v; want injected ErrCrashed", err)
				}
				wantLegacyState(t, point.String(), dir)
			})
		}
	}
}

// TestCrashThenRecoverThenCrashAgain chains two crash/recover cycles to
// prove recovery composes: a store that already survived a torn record can
// crash at a snapshot rename and still recover everything acknowledged.
func TestCrashThenRecoverThenCrashAgain(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ref, acked := runCrashTrace(t, dir, fireAt(CrashMidRecord, 4), -1)
	if acked != 3 {
		t.Fatalf("first crash acked %d; want 3", acked)
	}
	clock := resilience.NewFakeClock(time.Unix(31000, 0))
	ref.SetClock(clock.Now)
	re := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1, Hooks: fireAt(CrashPostRename, 1)})
	clock.Advance(time.Minute)
	if err := commit1(re, "models/u/second-life.model", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	memPut(ref, "models/u/second-life.model", []byte("v2"))
	if err := re.Compact(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Compact = %v; want injected ErrCrashed", err)
	}
	reopenAndCompare(t, dir, ref, "second crash")
}
