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
// ingest path does, may add at most 48 B each. Keys are allocated by the
// test and so excluded; payloads are not subtracted, because they belong on
// disk, not on the heap — the index holds a locator into the WAL or
// snapshot instead.
func TestDurableHeapPerObject(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap budgets are not meaningful under -race")
	}
	const pairs = 50_000
	const batch = 64 // pairs per Commit
	keys := make([]string, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		keys = append(keys, EventPath(fmt.Sprintf("job-%05d", i%977), i), fmt.Sprintf("index/u/sig-%04d/job-%05d-%06d", i%4096, i%977, i))
	}
	body := make([]byte, 116)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	entries := make([]Entry, 2*batch)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	d := mustOpen(t, t.TempDir(), DurableOptions{CompactEvery: -1})
	defer d.Close()
	for i := 0; i < len(keys); i += len(entries) {
		n := 0
		for j := i; j < i+len(entries) && j < len(keys); j += 2 {
			entries[n] = Entry{Path: keys[j], Data: body}
			entries[n+1] = Entry{Path: keys[j+1]}
			n += 2
		}
		if err := d.Commit(context.Background(), entries[:n]); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if d.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(keys))
	}
	perObject := (float64(after) - float64(before)) / float64(len(keys))
	t.Logf("durable store: %.1f B of live heap per object, payloads included", perObject)
	if perObject > 48 {
		t.Fatalf("durable store costs %.1f B per live object; budget is 48", perObject)
	}
	runtime.KeepAlive(keys)
	runtime.KeepAlive(entries)
}
