package store

import (
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/testutil"
)

// TestAppendWALRecordAllocFree pins the WAL framing hot path to zero
// allocations once the line buffer has grown: every fsynced mutation pays
// encode cost, so regressions here tax the whole durability path. Skipped
// under -race (detector instrumentation allocates).
func TestAppendWALRecordAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	put := walRecord{Seq: 9, Op: opPut, Path: "models/sig-17.gob", Data: make([]byte, 256), Created: 171717}
	del := walRecord{Seq: 10, Op: opDel, Path: "models/sig-17.gob"}
	buf := make([]byte, 0, 1024)
	var sink int
	if n := testing.AllocsPerRun(1000, func() {
		b := appendWALRecord(buf[:0], put)
		b = appendWALRecord(b, del)
		sink += len(b)
	}); n != 0 {
		t.Fatalf("appendWALRecord allocates %v times per put+del pair; budget is 0", n)
	}
	if sink == 0 {
		t.Fatal("framing produced no bytes")
	}
}

// TestLineBufNotPinnedByLargeCommit: the WAL line buffer is reused across
// the common small commits, and one large commit (a batch, a model) does not
// leave its buffer behind for the store's life.
func TestLineBufNotPinnedByLargeCommit(t *testing.T) {
	t.Parallel()
	d := mustOpen(t, t.TempDir(), DurableOptions{CompactEvery: -1})
	defer d.Close()
	kept := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return cap(d.lineBuf)
	}
	d.PutInternal(EventPath("j", 0), make([]byte, 200))
	small := kept()
	if small == 0 || small > maxKeptLineBuf {
		t.Fatalf("after a small commit cap(lineBuf) = %d; want it kept, within %d", small, maxKeptLineBuf)
	}
	d.PutInternal(EventPath("j", 1), make([]byte, 200))
	if got := kept(); got != small {
		t.Fatalf("a second small commit changed cap(lineBuf) %d → %d; want the buffer reused", small, got)
	}
	d.PutInternal("models/u/s.model", make([]byte, 2*maxKeptLineBuf))
	if got := kept(); got > maxKeptLineBuf {
		t.Fatalf("after a %d-byte commit cap(lineBuf) = %d; want ≤ %d", 2*maxKeptLineBuf, got, maxKeptLineBuf)
	}
	d.PutInternal(EventPath("j", 2), make([]byte, 200))
	if got := kept(); got == 0 || got > maxKeptLineBuf {
		t.Fatalf("small commit after the large one: cap(lineBuf) = %d", got)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}
