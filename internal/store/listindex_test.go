package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/testutil"
)

// export returns a deep copy of the store's full state, in path order: the
// state tests compare the durable store's against.
func (s *Store) export() []snapEntry {
	s.ix.mu.RLock()
	defer s.ix.mu.RUnlock()
	out := make([]snapEntry, 0, s.ix.lenLocked())
	s.ix.eachLocked(func(key []byte, o *object) {
		out = append(out, snapEntry{Path: string(key), Data: append([]byte(nil), o.data...), Created: o.created})
	})
	return out
}

// resetTo replaces the store's whole state with a decoded snapshot's entries,
// taking ownership of their payloads, as the durable store's replay and
// InstallSnapshot do with theirs.
func (s *Store) resetTo(entries []snapEntry) {
	es := make([]slot[object], len(entries))
	for i, e := range entries {
		es[i] = slot[object]{key: e.Path, val: object{data: e.Data, created: e.Created}}
	}
	s.ix.mu.Lock()
	defer s.ix.mu.Unlock()
	s.ix.resetLocked(es)
}

// oracleObject is what the test's own map remembers about one stored object.
type oracleObject struct {
	data    []byte
	created int64
}

// checkAgainstOracle compares every read the index serves — Get, List under
// each prefix, Len, and export's content and order — with a plain map.
func checkAgainstOracle(t *testing.T, step int, s *Store, oracle map[string]oracleObject, prefixes, probes []string) {
	t.Helper()
	if got := s.Len(); got != len(oracle) {
		t.Fatalf("step %d: Len = %d, oracle holds %d", step, got, len(oracle))
	}
	for _, prefix := range prefixes {
		var want []string
		for p := range oracle {
			if strings.HasPrefix(p, prefix) {
				want = append(want, p)
			}
		}
		sort.Strings(want)
		if got := s.List(prefix); !slices.Equal(got, want) {
			t.Fatalf("step %d: List(%q) = %d paths, oracle = %d\ngot:  %v\nwant: %v",
				step, prefix, len(got), len(want), got, want)
		}
	}
	for _, p := range probes {
		got, err := s.GetInternal(p)
		want, live := oracle[p]
		switch {
		case live && (err != nil || !bytes.Equal(got, want.data)):
			t.Fatalf("step %d: Get(%q) = (%q, %v), oracle has %q", step, p, got, err, want.data)
		case !live && !errors.Is(err, ErrNotFound):
			t.Fatalf("step %d: Get(%q) of a dead key = (%q, %v), want ErrNotFound", step, p, got, err)
		}
	}
	exp := s.export()
	if len(exp) != len(oracle) {
		t.Fatalf("step %d: export holds %d entries, oracle %d", step, len(exp), len(oracle))
	}
	for i, e := range exp {
		if i > 0 && exp[i-1].Path >= e.Path {
			t.Fatalf("step %d: export out of order at %d: %q then %q", step, i, exp[i-1].Path, e.Path)
		}
		if want := oracle[e.Path]; !bytes.Equal(e.Data, want.data) || e.Created != want.created {
			t.Fatalf("step %d: export[%q] = (%q, %d), oracle (%q, %d)", step, e.Path, e.Data, e.Created, want.data, want.created)
		}
	}
}

// TestListIndexMatchesNaiveScan drives the ordered index through every
// structural regime — keys only in the recent run, merged, overwritten in
// either half, deleted and re-put across a merge boundary, swept by age,
// replaced wholesale by resetTo — and checks every read against a map the
// test keeps itself. The operation count crosses the merge threshold several
// times, and a reader goroutine runs beside the writer so -race sees the
// locking.
func TestListIndexMatchesNaiveScan(t *testing.T) {
	s := New([]byte("k"))
	now := time.Unix(80000, 0)
	s.SetClock(func() time.Time { return now })
	rng := stats.NewRNG(7)
	ctx := context.Background()
	prefixes := []string{"", "events/", "events/job-1/", "index/u/", "models/", "zzz/"}
	oracle := map[string]oracleObject{}
	var everPut []string
	check := func(step int) {
		t.Helper()
		checkAgainstOracle(t, step, s, oracle, prefixes, everPut)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.List(prefixes[i%len(prefixes)])
			s.GetInternal("events/job-1/obj-00000")
			s.Len()
		}
	}()
	defer func() { close(stop); readers.Wait() }()

	put := func(entries ...Entry) {
		t.Helper()
		if err := s.Commit(ctx, entries); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			oracle[e.Path] = oracleObject{data: e.Data, created: e.createdOr(now)}
		}
	}
	live := func() []string {
		keys := make([]string, 0, len(oracle))
		for p := range oracle {
			keys = append(keys, p)
		}
		sort.Strings(keys)
		return keys
	}
	for step := 0; step < 6*recentMergeAt; step++ {
		now = now.Add(time.Second)
		switch op := rng.Intn(100); {
		case op < 50 || len(oracle) == 0: // commit one to three fresh keys
			var entries []Entry
			for n := 1 + rng.Intn(3); n > 0; n-- {
				p := fmt.Sprintf("%sobj-%05d-%d", prefixes[rng.Intn(len(prefixes))], step, n)
				entries = append(entries, Entry{Path: p, Data: []byte(p[:rng.Intn(4)])})
				everPut = append(everPut, p)
			}
			put(entries...)
		case op < 70: // overwrite, sometimes with an explicit older timestamp
			keys := live()
			e := Entry{Path: keys[rng.Intn(len(keys))], Data: []byte("v2")}
			if rng.Intn(2) == 0 {
				e.Created = now.Add(-time.Duration(rng.Intn(7200)) * time.Second)
			}
			put(e)
		case op < 90: // delete, sometimes followed by an immediate re-put
			keys := live()
			p := keys[rng.Intn(len(keys))]
			s.Delete(p)
			delete(oracle, p)
			if rng.Intn(2) == 0 {
				put(Entry{Path: p, Data: []byte("v3")})
			}
		case op < 96: // retention sweep: event files and index entries; it counts the files
			retention := time.Duration(60+rng.Intn(1200)) * time.Second
			want := 0
			for p, o := range oracle {
				if o.created >= now.Add(-retention).UnixNano() {
					continue
				}
				if strings.HasPrefix(p, "events/") {
					delete(oracle, p)
					want++
				} else if strings.HasPrefix(p, "index/") {
					delete(oracle, p)
				}
			}
			if got := s.CleanupOlderThan(retention); got != want {
				t.Fatalf("step %d: sweep reaped %d, oracle %d", step, got, want)
			}
		default: // resetTo a shuffled image that drops some keys and names one twice
			image := s.export()
			rng.Shuffle(len(image), func(i, j int) { image[i], image[j] = image[j], image[i] })
			drop := rng.Intn(len(image)/4 + 1)
			for _, e := range image[:drop] {
				delete(oracle, e.Path)
			}
			image = image[drop:]
			if len(image) > 0 {
				dup := image[rng.Intn(len(image))]
				dup.Data, dup.Created = []byte("dup"), now.UnixNano()
				image = append(image, dup)
				oracle[dup.Path] = oracleObject{data: dup.Data, created: dup.Created}
			}
			s.resetTo(image)
		}
		if step%97 == 0 {
			check(step)
		}
	}
	check(-1)

	for _, p := range live() {
		s.Delete(p)
		delete(oracle, p)
	}
	check(-2)
	if got := s.List(""); len(got) != 0 {
		t.Fatalf("emptied store still lists %d paths: %v", len(got), got[:min(len(got), 5)])
	}
}

// TestIndexBytesPerObject pins what the in-memory store's index costs per
// live object: 100k event files and their index entries may add at most 56
// bytes each to the live heap beside their payloads (the entry is 32; the
// rest is the front-coded key, the restarts and the recent run). Keys are
// built per put and dropped, so the index's own copy of a key counts.
func TestIndexBytesPerObject(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap budgets are not meaningful under -race")
	}
	const pairs = 50_000
	const payload = 64 // a malloc size class, so the store's copy costs exactly this
	body := make([]byte, payload)
	var pair []Entry
	before := liveHeap()
	s := New([]byte("k"))
	for i := 0; i < pairs; i++ {
		pair = appendPairs(pair[:0], i, i+1, body)
		s.putAt(pair[0].Path, pair[0].Data, int64(i))
		s.putAt(pair[1].Path, nil, int64(i))
	}
	clear(pair)
	after := liveHeap()
	if s.Len() != 2*pairs {
		t.Fatalf("Len = %d, want %d", s.Len(), 2*pairs)
	}
	perObject := (float64(after) - float64(before) - pairs*payload) / (2 * pairs)
	t.Logf("index: %.1f B per live object, keys included", perObject)
	if perObject > 56 {
		t.Fatalf("index costs %.1f B per live object; budget is 56", perObject)
	}
	runtime.KeepAlive(pair)
}

// BenchmarkListPointLookup is the Model Updater's access pattern: one List
// of a single signature's index folder while the store holds many others.
// The amortized key index keeps this O(log n + matches); the former full
// map scan made bulk ingest quadratic in fleet-scale runs.
func BenchmarkListPointLookup(b *testing.B) {
	s := New([]byte("k"))
	for i := 0; i < 100_000; i++ {
		memPut(s, fmt.Sprintf("index/u/sig-%06d/job-%d", i, i), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.List(fmt.Sprintf("index/u/sig-%06d/", i%100_000)); len(got) != 1 {
			b.Fatalf("point lookup returned %d paths", len(got))
		}
	}
}
