package store

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

// TestDurableCreatedLivesOnDisk: the durable index keeps no creation time;
// every reader of one takes it from the 8 bytes after the payload on disk.
// Each object's creation time must come back from Export after a put, a
// batch (with and without an explicit Created), an overwrite, a reopen, a
// compaction and an InstallSnapshot, for empty and non-empty payloads,
// located in the WAL and in the snapshot; and the retention sweep must reap
// by it in each of those states.
func TestDurableCreatedLivesOnDisk(t *testing.T) {
	t.Parallel()
	t0 := time.Unix(50000, 0)
	clock := resilience.NewFakeClock(t0)
	open := func(dir string) *DurableStore {
		d := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
		t.Cleanup(func() { d.Close() })
		return d
	}
	d := open(t.TempDir())
	want := map[string]snapEntry{}
	commit := func(entries ...Entry) {
		t.Helper()
		if err := d.Commit(context.Background(), entries); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			want[e.Path] = snapEntry{Path: e.Path, Data: e.Data, Created: e.createdOr(clock.Now())}
		}
		clock.Advance(time.Hour)
	}
	check := func(label string, s *DurableStore) {
		t.Helper()
		es := make([]snapEntry, 0, len(want))
		for _, e := range want {
			es = append(es, e)
		}
		slices.SortFunc(es, func(a, b snapEntry) int { return strings.Compare(a.Path, b.Path) })
		if got := exportOf(s); !reflect.DeepEqual(got, es) {
			t.Fatalf("%s: export\n got %+v\nwant %+v", label, got, es)
		}
	}
	// The sweep reaps event files and index entries created before cutoff,
	// and nothing else, however old.
	cutoff := t0.Add(30 * time.Minute)
	checkSweep := func(label string, s *DurableStore) {
		t.Helper()
		var kept []snapEntry
		events := 0
		for _, e := range exportOf(s) {
			if swept := strings.HasPrefix(e.Path, "events/") || strings.HasPrefix(e.Path, "index/"); swept && e.Created < cutoff.UnixNano() {
				if strings.HasPrefix(e.Path, "events/") {
					events++
				}
				continue
			}
			kept = append(kept, e)
		}
		if events == 0 || len(kept) == len(want) {
			t.Fatalf("%s: the sweep has nothing to reap; the check proves nothing", label)
		}
		if n := s.CleanupOlderThan(clock.Now().Sub(cutoff)); n != events {
			t.Fatalf("%s: sweep reaped %d event files, want %d", label, n, events)
		}
		if got := exportOf(s); !reflect.DeepEqual(got, kept) {
			t.Fatalf("%s: after the sweep\n got %+v\nwant %+v", label, got, kept)
		}
	}

	// t0: one put with a payload, one without.
	commit(Entry{Path: "events/j/run-000000.jsonl", Data: []byte("run 0")})
	commit(Entry{Path: "index/u/s/j-000000"})
	// A batch of both kinds, two of them carrying an older Created, as the
	// promote path's absorb does; the model is old but never swept.
	commit(
		Entry{Path: "events/j/run-000001.jsonl", Data: []byte("run 1")},
		Entry{Path: "index/u/s/j-000001"},
		Entry{Path: "index/u/s/j-000002", Created: t0.Add(-time.Hour)},
		Entry{Path: "events/j/run-000002.jsonl", Data: []byte("run 2"), Created: t0.Add(-2 * time.Hour)},
		Entry{Path: "models/u/s.model", Data: []byte("model"), Created: t0.Add(-3 * time.Hour)},
	)
	// Overwrites restamp: this index entry was t0's, and is now too young
	// to reap; the event file keeps an old stamp under a new payload.
	commit(Entry{Path: "index/u/s/j-000000"})
	commit(Entry{Path: "events/j/run-000001.jsonl", Data: []byte("run 1, again"), Created: t0.Add(-time.Hour)})

	check("in the WAL", d)
	re := open(copyStoreDir(t, d.dir))
	check("WAL replayed", re)
	checkSweep("sweep over the WAL", re)

	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	check("in the snapshot", d)
	re = open(copyStoreDir(t, d.dir))
	check("snapshot reopened", re)
	checkSweep("sweep over the snapshot", re)

	image, _, err := d.SnapshotImage()
	if err != nil {
		t.Fatal(err)
	}
	follower := open(t.TempDir())
	if _, err := follower.InstallSnapshot(image); err != nil {
		t.Fatal(err)
	}
	check("installed", follower)
	checkSweep("sweep over an installed snapshot", follower)

	// Both files at once: an overwrite and a fresh put land in the WAL
	// beside the snapshot's entries.
	commit(Entry{Path: "events/j/run-000000.jsonl", Data: []byte("run 0, again"), Created: t0})
	commit(Entry{Path: "index/u/s/j-000003", Created: t0})
	check("snapshot and WAL", d)
	checkSweep("sweep over snapshot and WAL", d)
}

// TestDurableCorruptCreatedFailsReaders: the locator's CRC covers the
// creation time as well as the payload. A bit flipped in the 8 bytes after a
// payload, with or without payload bytes, in the WAL or in the snapshot,
// fails every reader of that object: a read of its payload, Export, a
// compaction (which must not seal the damaged value under a fresh
// checksum) and the retention sweep, which reaps nothing rather than judge
// any object by it.
func TestDurableCorruptCreatedFailsReaders(t *testing.T) {
	t.Parallel()
	for _, file := range []string{walFile, snapshotFile} {
		for _, victim := range []Entry{
			{Path: "events/j/run-000000.jsonl", Data: []byte("a run a disk fault hits")},
			{Path: "index/u/s/j-000000"},
		} {
			t.Run(file+"/"+victim.Path, func(t *testing.T) {
				t.Parallel()
				t0 := time.Unix(50000, 0)
				clock := resilience.NewFakeClock(t0)
				dir := t.TempDir()
				d := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
				defer d.Close()
				// Both are old enough to reap; the flip below makes the
				// victim's stamp lie in the far future.
				neighbour := Entry{Path: "events/j/run-000001.jsonl", Data: []byte("an intact neighbour")}
				if err := d.Commit(context.Background(), []Entry{victim, neighbour}); err != nil {
					t.Fatal(err)
				}
				if file == snapshotFile {
					if err := d.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				clock.Advance(2 * time.Hour)
				flipCreatedByte(t, dir, file, victim)

				// A read of an empty payload touches no disk bytes at all.
				if _, err := d.GetInternal(victim.Path); len(victim.Data) > 0 && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("read of the damaged object: err = %v; want ErrCorrupt", err)
				}
				if _, err := d.export(); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("export over a damaged creation time: err = %v; want ErrCorrupt", err)
				}
				if got := d.Export(); len(got) != 1 || got[0].Path != neighbour.Path {
					t.Fatalf("Export = %+v; want only the intact neighbour", got)
				}
				if err := d.Compact(); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("compaction over a damaged creation time: err = %v; want ErrCorrupt", err)
				}
				if n := d.CleanupOlderThan(time.Hour); n != 0 || d.Len() != 2 {
					t.Fatalf("sweep over a damaged creation time reaped %d event file(s), %d of 2 objects left; want none reaped", n, d.Len())
				}
			})
		}
	}
}

// flipCreatedByte flips a bit in the most significant byte of e's creation
// time in the named store file: the 8 bytes right after e's payload, which
// follows e's path and payload length.
func flipCreatedByte(t *testing.T, dir, file string, e Entry) {
	t.Helper()
	path := filepath.Join(dir, file)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(img, []byte(e.Path))
	if at < 0 || bytes.Count(img, []byte(e.Path)) != 1 || len(e.Data) >= 0x80 {
		t.Fatalf("%s is not in %s exactly once with a one-byte length", e.Path, file)
	}
	at += len(e.Path) + 1 + len(e.Data) + 7
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{img[at] ^ 0x20}, int64(at)); err != nil {
		t.Fatal(err)
	}
}

// copyStoreDir copies a durable store's files to a new directory, as a
// crash would leave them, and returns it.
func copyStoreDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	for _, name := range []string{walFile, snapshotFile} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
