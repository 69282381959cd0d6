package store

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/testutil"
)

// fuzzKey returns key i of the fuzzer's universe: event files and index
// entries whose sorted neighbours share long prefixes, keys of 128 bytes
// and more (two-byte varints), and keys that are prefixes of other keys.
func fuzzKey(i int) string {
	switch i % 5 {
	case 0:
		return fmt.Sprintf("events/job-%02d/run-%06d.jsonl", i/5%7, i/35)
	case 1:
		return fmt.Sprintf("index/u/sig-%d/job-%03d-%06d", i/5%3, i/15%11, i/165)
	case 2:
		return "models/" + strings.Repeat("m", 120+i/5%20) + fmt.Sprint(i/100)
	case 3:
		k := fuzzKey(i - 3)
		return k[:len(k)-i/5%(len(k)-1)]
	default:
		return fmt.Sprintf("index/u/sig-%d/job-%03d", i/5%3, i/15%11)
	}
}

// checkIndex compares x with the oracle — Len, every entry in order, a
// lookup of every live key — and checks the run's own shape: blocks of 1 to
// restartEvery entries, each starting with a restart.
func checkIndex(t *testing.T, step int, x *index[stamped], oracle map[string]stamped) {
	t.Helper()
	if x.lenLocked() != len(oracle) {
		t.Fatalf("step %d: len = %d, oracle %d", step, x.lenLocked(), len(oracle))
	}
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	n := 0
	x.eachLocked(func(key []byte, e *stamped) {
		if n >= len(keys) || string(key) != keys[n] || *e != oracle[keys[n]] {
			t.Fatalf("step %d: entry %d = (%q, %+v); oracle %q", step, n, key, *e, keys[min(n, len(keys)-1)])
		}
		n++
	})
	for _, k := range keys {
		if e := x.findLocked(k); e == nil || *e != oracle[k] {
			t.Fatalf("step %d: find(%q) = %v; oracle %+v", step, k, e, oracle[k])
		}
	}
	r := &x.run
	for b := range r.blocks {
		_, e0 := r.bounds(b)
		_, e1 := r.bounds(b + 1)
		if e1-e0 < 1 || e1-e0 > restartEvery || r.keys[r.blocks[b].off] != 0 {
			t.Fatalf("step %d: block %d holds %d entries (restart byte %d)", step, b, e1-e0, r.keys[r.blocks[b].off])
		}
	}
}

// stamped is the fuzzer's index entry: a value and a creation time, as the
// in-memory store's object carries one.
type stamped struct{ created, val int64 }

// FuzzIndex drives the index through a byte-chosen sequence of puts,
// overwrites, bulk inserts across merges, removals, retention sweeps,
// wholesale resets, lookups and lists, and compares it with a map after
// every step.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 7, 2, 0, 0, 200, 7, 1, 0, 4, 3, 1, 0, 9, 9, 5, 40, 6, 0, 7, 0, 0})
	f.Add([]byte{2, 0, 0, 255, 2, 0, 3, 255, 4, 5, 0, 10, 0, 11, 0, 12, 0, 13, 0, 14, 5, 255, 2, 0, 1, 130, 6, 9})
	f.Add([]byte{2, 1, 2, 180, 3, 0, 3, 1, 3, 2, 7, 0, 2, 4, 8, 0, 12, 0, 16, 0, 20, 0, 24, 0, 28, 0, 32, 0, 36})
	f.Fuzz(fuzzIndex)
}

// fuzzIndex is FuzzIndex's body: ops chooses every operation and its
// arguments, a byte at a time.
func fuzzIndex(t *testing.T, ops []byte) {
	ops = ops[:min(len(ops), 512)] // every step checks the whole index
	var x index[stamped]
	oracle := map[string]stamped{}
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	nextKey := func() string { return fuzzKey(next()<<4 | next()>>4) }
	put := func(k string, e stamped) {
		x.putLocked(k, e)
		oracle[k] = e
	}
	live := func() []string {
		keys := make([]string, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys
	}
	for step := int64(1); len(ops) > 0; step++ {
		switch next() % 8 {
		case 0, 1: // put
			put(nextKey(), stamped{created: step, val: step})
		case 2: // bulk put of consecutive keys, across merges
			from, n := next()<<4, 1+4*next()
			for i := from; i < from+n; i++ {
				put(fuzzKey(i), stamped{created: step, val: int64(i)})
			}
		case 3: // overwrite a live key
			if keys := live(); len(keys) > 0 {
				put(keys[next()*len(keys)/256], stamped{created: step, val: -step})
			}
		case 4: // remove some keys, live, dead and named twice
			var gone []string
			for n := next() % 8; n >= 0; n-- {
				k := nextKey()
				if keys := live(); len(keys) > 0 && n%2 == 0 {
					k = keys[next()*len(keys)/256]
				}
				gone = append(gone, k, k)
			}
			x.removeLocked(gone...)
			for _, k := range gone {
				delete(oracle, k)
			}
		case 5: // retention sweep
			cutoff := step - int64(next())
			reaped, events := x.expiredLocked(cutoff, func(e *stamped) int64 { return e.created })
			var want []string
			wantEvents := 0
			for _, k := range live() {
				if e := oracle[k]; e.created < cutoff && (strings.HasPrefix(k, "events/") || strings.HasPrefix(k, "index/")) {
					want = append(want, k)
					if strings.HasPrefix(k, "events/") {
						wantEvents++
					}
				}
			}
			if !slices.Equal(reaped, want) || events != wantEvents {
				t.Fatalf("step %d: expired = %q (%d events); oracle %q (%d)", step, reaped, events, want, wantEvents)
			}
			x.removeLocked(reaped...)
			for _, k := range reaped {
				delete(oracle, k)
			}
		case 6: // reset from the live entries, rotated, one named twice
			keys := live()
			es := make([]slot[stamped], 0, len(keys)+1)
			for _, k := range keys {
				es = append(es, slot[stamped]{key: k, val: oracle[k]})
			}
			if len(es) > 0 {
				r := next() % len(es)
				es = append(es[r:], es[:r]...)
				dup := slot[stamped]{key: es[0].key, val: stamped{created: step, val: 7}}
				es = append(es, dup)
				oracle[dup.key] = dup.val
			}
			x.resetLocked(es)
		default: // get and list
			k := nextKey()
			if e, want := x.findLocked(k), oracle[k]; (e != nil) != (want != stamped{}) || e != nil && *e != want {
				t.Fatalf("step %d: find(%q) = %v; oracle %+v", step, k, e, want)
			}
			prefix := k[:next()%(len(k)+1)]
			var want []string
			for _, key := range live() {
				if strings.HasPrefix(key, prefix) {
					want = append(want, key)
				}
			}
			if got := x.list(prefix); !slices.Equal(got, want) {
				t.Fatalf("step %d: list(%q) = %q; oracle %q", step, prefix, got, want)
			}
		}
		checkIndex(t, int(step), &x, oracle)
	}
}

// TestIndexReadsAllocate pins the read paths' allocations: a lookup makes
// none, and a List makes two however many keys it returns.
func TestIndexReadsAllocate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	var x index[loc]
	for i := 0; i < 5000; i++ {
		x.putLocked(benchKey(i), loc{at: uint64(i)})
	}
	probe := benchKey(1234)
	if n := testing.AllocsPerRun(100, func() {
		if x.findLocked(probe) == nil {
			t.Fatal("stored key not found")
		}
	}); n != 0 {
		t.Fatalf("a lookup allocates %v times; budget is 0", n)
	}
	var got []string
	if n := testing.AllocsPerRun(100, func() { got = x.list("events/job-0003/") }); n != 2 {
		t.Fatalf("List allocates %v times for %d keys; budget is 2", n, len(got))
	}
	if len(got) < 2 {
		t.Fatalf("List returned %d keys; the budget is meant for many", len(got))
	}
}

// benchKey returns key i of a store holding event files and their
// signature index entries, shaped like EventPath and signatureIndexPath.
func benchKey(i int) string {
	run := i / 2
	if i%2 == 0 {
		return EventPath(fmt.Sprintf("job-%04d", run%977), run)
	}
	return fmt.Sprintf("index/u/sig-%04d/job-%04d-%06d", run%64, run%977, run)
}

var benchSizes = []int{10_000, 100_000}

// BenchmarkIndexPut inserts keys in arrival order into an index that is
// rebuilt empty every n keys: insert plus amortized merge.
func BenchmarkIndexPut(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			keys := make([]string, n)
			for i := range keys {
				keys[i] = benchKey(i)
			}
			x := new(index[loc])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%n == 0 && i > 0 {
					b.StopTimer()
					x = new(index[loc])
					b.StartTimer()
				}
				x.putLocked(keys[i%n], loc{at: uint64(i)})
			}
		})
	}
}

// BenchmarkIndexGet looks up stored keys in an index of n.
func BenchmarkIndexGet(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			x := new(index[loc])
			keys := make([]string, n)
			for i := range keys {
				keys[i] = benchKey(i)
				x.putLocked(keys[i], loc{at: uint64(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if x.findLocked(keys[i*7919%n]) == nil {
					b.Fatal("stored key not found")
				}
			}
		})
	}
}

// BenchmarkIndexList lists one signature's index folder, the retrain's
// read, in an index of n.
func BenchmarkIndexList(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			x := new(index[loc])
			for i := 0; i < n; i++ {
				x.putLocked(benchKey(i), loc{at: uint64(i)})
			}
			prefixes := make([]string, 64)
			for i := range prefixes {
				prefixes[i] = fmt.Sprintf("index/u/sig-%04d/", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := x.list(prefixes[i%64]); len(got) < n/2/64 {
					b.Fatalf("listed %d keys", len(got))
				}
			}
		})
	}
}
