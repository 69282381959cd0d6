package store

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/testutil"
)

// TestDurableHeapPerObject pins what a durable store costs per live object
// on the Go heap: 100k event files (116 B payloads, the size of a small run
// record) and their empty index entries, committed in batches the way the
// ingest path does, may add at most 36 B each. Each batch's keys are built
// for its Commit and dropped after it, as the ingest path's are, so the
// store's own copy of a key counts; payloads count too, because they belong
// on disk, not on the heap — the index holds a locator into the WAL or
// snapshot instead, and the creation time stays on disk right after the
// payload.
func TestDurableHeapPerObject(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap budgets are not meaningful under -race")
	}
	const pairs = 50_000
	const batch = 64 // pairs per Commit
	body := make([]byte, 116)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	entries := make([]Entry, 0, 2*batch)
	before := liveHeap()
	d := mustOpen(t, t.TempDir(), DurableOptions{CompactEvery: -1})
	defer d.Close()
	for i := 0; i < pairs; i += batch {
		entries = appendPairs(entries[:0], i, min(i+batch, pairs), body)
		if err := d.Commit(context.Background(), entries); err != nil {
			t.Fatal(err)
		}
	}
	clear(entries)
	after := liveHeap()
	if d.Len() != 2*pairs {
		t.Fatalf("Len = %d, want %d", d.Len(), 2*pairs)
	}
	perObject := (float64(after) - float64(before)) / (2 * pairs)
	t.Logf("durable store: %.1f B of live heap per object, keys and payloads included", perObject)
	if perObject > 36 {
		t.Fatalf("durable store costs %.1f B per live object; budget is 36", perObject)
	}
	runtime.KeepAlive(entries)
}

// appendPairs appends the event file and index entry of runs [from, to),
// keyed as the ingest path keys them; index entries are empty.
func appendPairs(dst []Entry, from, to int, body []byte) []Entry {
	for i := from; i < to; i++ {
		dst = append(dst,
			Entry{Path: EventPath(fmt.Sprintf("job-%05d", i%977), i), Data: body},
			Entry{Path: fmt.Sprintf("index/u/sig-%04d/job-%05d-%06d", i%4096, i%977, i)})
	}
	return dst
}

// liveHeap returns the bytes still reachable after forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
