package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/stats"
)

// abandon releases the WAL handle WITHOUT the final snapshot Close takes,
// simulating an unclean (but not torn) exit so tests can exercise pure WAL
// replay on reopen.
func (d *DurableStore) abandon() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down == nil {
		d.down = ErrClosed
	}
	d.closeFiles()
}

// exportOf returns the full state of either store flavor for comparison.
func exportOf(v any) []snapEntry {
	switch s := v.(type) {
	case *Store:
		return s.export()
	case *DurableStore:
		es, err := s.export()
		if err != nil {
			panic(err)
		}
		return es
	}
	panic("exportOf: unsupported store type")
}

// wantSameState fails the test unless both stores hold byte-identical
// state: paths, object bytes, and creation timestamps.
func wantSameState(t *testing.T, label string, a, b any) {
	t.Helper()
	ea, eb := exportOf(a), exportOf(b)
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("%s: states diverge:\n a=%+v\n b=%+v", label, ea, eb)
	}
}

// commit1 is a one-entry Commit stamped "now".
func commit1(d *DurableStore, p string, data []byte) error {
	return d.Commit(context.Background(), []Entry{{Path: p, Data: data}})
}

// randomCommit draws a 1–4 entry commit over paths. About a third of the
// entries carry an explicit Created up to three days back (the promote
// path's shape, and old enough for a sweep to bite); the rest leave it zero
// for the store to stamp.
func randomCommit(r *stats.RNG, paths []string, now time.Time, i int) []Entry {
	n := 1
	if r.Intn(2) == 0 {
		n = 2 + r.Intn(3)
	}
	entries := make([]Entry, n)
	for j := range entries {
		entries[j] = Entry{Path: paths[r.Intn(len(paths))], Data: []byte(fmt.Sprintf("v-%d-%d-%d", i, j, r.Uint64()))}
		if r.Intn(3) == 0 {
			entries[j].Created = now.Add(-time.Duration(r.Intn(72*60)) * time.Minute)
		}
	}
	return entries
}

func mustOpen(t *testing.T, dir string, opts DurableOptions) *DurableStore {
	t.Helper()
	d, err := OpenDurable(dir, []byte("k"), DurableOptions{
		Clock:        opts.Clock,
		CompactEvery: opts.CompactEvery,
		NoSync:       true,
		Hooks:        opts.Hooks,
		OnAppend:     opts.OnAppend,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDurableReopenByteIdentical(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	clock := resilience.NewFakeClock(time.Unix(9000, 0))
	d := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
	d.PutInternal("models/u/a.model", []byte("alpha"))
	clock.Advance(time.Minute)
	d.PutInternal("events/j/run-000000.jsonl", []byte("e0"))
	clock.Advance(time.Minute)
	d.PutInternal("models/u/a.model", []byte("alpha-v2")) // overwrite
	if err := d.Delete("events/j/run-000000.jsonl"); err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	before := exportOf(d)
	d.abandon()

	re := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
	defer re.Close()
	if got := exportOf(re); !reflect.DeepEqual(got, before) {
		t.Fatalf("pure WAL replay diverged:\n got=%+v\n want=%+v", got, before)
	}
	blob, err := re.GetInternal("models/u/a.model")
	if err != nil || !bytes.Equal(blob, []byte("alpha-v2")) {
		t.Fatalf("recovered model = %q, %v", blob, err)
	}
}

func TestCompactionPreservesStateAcrossReopen(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	clock := resilience.NewFakeClock(time.Unix(9000, 0))
	d := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
	d.PutInternal("models/u/a.model", []byte("alpha"))
	d.PutInternal("models/u/b.model", []byte("beta"))
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	// Mutations after the snapshot land in the WAL suffix.
	clock.Advance(time.Hour)
	d.PutInternal("models/u/c.model", []byte("gamma"))
	if err := d.Delete("models/u/a.model"); err != nil {
		t.Fatal(err)
	}
	want := exportOf(d)
	d.abandon()

	re := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
	defer re.Close()
	if got := exportOf(re); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot+WAL replay diverged:\n got=%+v\n want=%+v", got, want)
	}
}

func TestCloseFlushesFinalSnapshot(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	clock := resilience.NewFakeClock(time.Unix(9000, 0))
	d := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
	d.PutInternal("models/u/a.model", []byte("alpha"))
	want := exportOf(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Err after Close = %v", err)
	}
	d.PutInternal("models/u/late.model", []byte("x")) // must be refused, logged, latched

	re := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
	defer re.Close()
	if got := exportOf(re); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after Close+reopen diverged:\n got=%+v\n want=%+v", got, want)
	}
}

// TestDurableMatchesMemoryGolden is the golden equivalence test: a durable
// store and the plain in-memory store, driven through the public token API
// by one seeded random operation trace, must produce identical List and
// Get results — before and after a reopen.
func TestDurableMatchesMemoryGolden(t *testing.T) {
	t.Parallel()
	r := stats.NewRNG(1234)
	dir := t.TempDir()
	clock := resilience.NewFakeClock(time.Unix(40000, 0))
	mem := New([]byte("k"))
	mem.SetClock(clock.Now)
	dur := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: 5})

	paths := []string{
		EventPath("job-a", 0), EventPath("job-a", 1), EventPath("job-b", 0),
		ModelPath("u1", "sig-1"), ModelPath("u2", "sig-2"),
		ArtifactPath("art-1", "cache.json"), AppCachePath,
	}
	wtokMem := mem.Sign("", PermWrite, 90*24*time.Hour)
	wtokDur := dur.Sign("", PermWrite, 90*24*time.Hour)
	for i := 0; i < 300; i++ {
		clock.Advance(time.Duration(1+r.Intn(600)) * time.Second)
		p := paths[r.Intn(len(paths))]
		switch r.Intn(8) {
		case 0, 1, 2, 3:
			data := []byte(fmt.Sprintf("payload-%d-%d", i, r.Uint64()))
			if err := putWithToken(mem, wtokMem, p, data); err != nil {
				t.Fatal(err)
			}
			if err := putWithToken(dur, wtokDur, p, data); err != nil {
				t.Fatal(err)
			}
		case 4:
			mem.Delete(p)
			if err := dur.Delete(p); err != nil {
				t.Fatal(err)
			}
		case 5:
			ret := time.Duration(1+r.Intn(72)) * time.Hour
			nm, nd := mem.CleanupOlderThan(ret), dur.CleanupOlderThan(ret)
			if nm != nd {
				t.Fatalf("op %d: sweep reaped %d (mem) vs %d (durable)", i, nm, nd)
			}
		default:
			gm, em := mem.GetInternal(p)
			gd, ed := dur.GetInternal(p)
			if (em == nil) != (ed == nil) || !bytes.Equal(gm, gd) {
				t.Fatalf("op %d: Get(%s) diverged: (%q,%v) vs (%q,%v)", i, p, gm, em, gd, ed)
			}
		}
	}
	for _, prefix := range []string{"", "events/", "models/", "artifacts/"} {
		if m, d := mem.List(prefix), dur.List(prefix); !reflect.DeepEqual(m, d) {
			t.Fatalf("List(%q) diverged: %v vs %v", prefix, m, d)
		}
	}
	wantSameState(t, "golden trace", mem, dur)

	dur.abandon()
	re := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: 5})
	defer re.Close()
	wantSameState(t, "golden trace after reopen", mem, re)
}

// TestSweepBatchesOneWALRecord: the retention sweep logs its whole batch as
// a single WAL record — one append + fsync under the store mutex no matter
// how many files expired — and that batch record replays correctly.
func TestSweepBatchesOneWALRecord(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	clock := resilience.NewFakeClock(time.Unix(70000, 0))
	d := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
	const expired = 16
	for i := 0; i < expired; i++ {
		d.PutInternal(EventPath("job-1", i), []byte("old"))
	}
	clock.Advance(48 * time.Hour)
	d.PutInternal(EventPath("job-1", expired), []byte("fresh"))
	walLines := func() int {
		img, err := os.ReadFile(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		lines, _, validLen, err := scanWAL(img, 0, decodeRecord)
		if err != nil || validLen != int64(len(img)) {
			t.Fatalf("WAL does not scan whole: %d of %d byte(s), %v", validLen, len(img), err)
		}
		return len(lines)
	}
	before := walLines()
	if n := d.CleanupOlderThan(24 * time.Hour); n != expired {
		t.Fatalf("sweep reaped %d; want %d", n, expired)
	}
	if got := walLines(); got != before+1 {
		t.Fatalf("sweep appended %d WAL record(s); want exactly 1", got-before)
	}
	want := exportOf(d)
	d.abandon()
	re := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
	defer re.Close()
	if got := exportOf(re); !reflect.DeepEqual(got, want) {
		t.Fatalf("batched sweep record did not replay:\n got=%+v\n want=%+v", got, want)
	}
	if _, err := re.GetInternal(EventPath("job-1", expired)); err != nil {
		t.Fatal("fresh event file must survive the sweep and its replay")
	}
}

// TestOpenFailsOnWALHeadGap: a log whose first record skips past the
// snapshot sequence has lost acknowledged history from its head — no crash
// produces that state. Opening must fail with ErrWALGap and leave the WAL
// bytes untouched for forensics, not truncate the evidence and serve as
// healthy.
func TestOpenFailsOnWALHeadGap(t *testing.T) {
	t.Parallel()
	t.Run("no-snapshot", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		line, _ := appendWALRecord(nil, walRecord{Seq: 3, Op: opPut, Path: "models/u/a.model", Data: []byte("x")}, nil)
		wantGapUntouched(t, dir, line)
	})
	// A legacy log is checked for the gap before it is rewritten, and is
	// left as it was.
	t.Run("legacy-no-snapshot", func(t *testing.T) {
		t.Parallel()
		wantGapUntouched(t, t.TempDir(), legacyFrame(`{"seq":3,"op":"put","path":"models/u/a.model","data":"eA=="}`))
	})
	t.Run("after-snapshot", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		clock := resilience.NewFakeClock(time.Unix(70000, 0))
		d := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
		d.PutInternal("models/u/a.model", []byte("alpha")) // seq 1
		d.PutInternal("models/u/b.model", []byte("beta"))  // seq 2
		if err := d.Compact(); err != nil {                // snapshot covers seq 2
			t.Fatal(err)
		}
		d.abandon()
		// Simulate lost acknowledged records: the next record on disk claims
		// seq 4, skipping seq 3.
		line, _ := appendWALRecord(nil, walRecord{Seq: 4, Op: opDel, Path: "models/u/a.model"}, nil)
		if err := os.WriteFile(filepath.Join(dir, walFile), line, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDurable(dir, []byte("k"), DurableOptions{NoSync: true}); !errors.Is(err, ErrWALGap) {
			t.Fatalf("open = %v; want ErrWALGap", err)
		}
	})
}

// wantGapUntouched writes line as the WAL of dir and requires opening to
// fail with ErrWALGap without modifying it.
func wantGapUntouched(t *testing.T, dir string, line []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, walFile), line, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, []byte("k"), DurableOptions{NoSync: true}); !errors.Is(err, ErrWALGap) {
		t.Fatalf("open = %v; want ErrWALGap", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil || !bytes.Equal(after, line) {
		t.Fatalf("refusing to open must not modify the WAL (err=%v)", err)
	}
}

// TestDurableCompactsOnWALBytes: a group commit folds many objects into one
// record, so the log is also compacted by size — once it holds more than
// compactWALBytes and more than the live snapshot — long before the record
// count would fire.
func TestDurableCompactsOnWALBytes(t *testing.T) {
	t.Parallel()
	d := mustOpen(t, t.TempDir(), DurableOptions{})
	defer d.Close()
	blob := bytes.Repeat([]byte("m"), 256<<10)
	put := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := commit1(d, fmt.Sprintf("models/u/s%02d.model", i), blob); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 15 quarter-MiB records stay under 4 MiB; the 16th reaches it.
	put(0, 15)
	if d.snapSeq != 0 || d.walCount != 15 {
		t.Fatalf("compacted early: snapshot at seq %d, %d WAL records", d.snapSeq, d.walCount)
	}
	put(15, 16)
	if d.snapSeq != 16 || d.walSize != 0 {
		t.Fatalf("4 MiB of WAL did not compact: snapshot at seq %d, WAL %d bytes", d.snapSeq, d.walSize)
	}
	// Against a 6 MiB snapshot, 5 MiB of WAL is past the floor but not past
	// the snapshot,
	put(16, 24)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	put(0, 20)
	if d.snapSeq != 24 {
		t.Fatalf("%d WAL bytes compacted before they outgrew the %d-byte snapshot", d.walSize, d.snapSize)
	}
	// and 7 MiB is.
	put(20, 28)
	if d.snapSeq <= 24 {
		t.Fatalf("%d WAL bytes did not compact past the %d-byte snapshot", d.walSize, d.snapSize)
	}
	for i := 0; i < 28; i++ {
		if got, err := d.GetInternal(fmt.Sprintf("models/u/s%02d.model", i)); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("model %d after size compactions: %d bytes, %v", i, len(got), err)
		}
	}
}
