package store

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

// wantReadsMatch holds every read path of a durable store to the in-memory
// reference: GetInternal of each path (live ones return the reference's
// bytes, dead ones ErrNotFound) and Export of the whole state.
func wantReadsMatch(t *testing.T, label string, ref *Store, d *DurableStore, paths []string) {
	t.Helper()
	for _, p := range paths {
		want, werr := ref.GetInternal(p)
		got, gerr := d.GetInternal(p)
		if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("%s: GetInternal(%s) = (%q, %v); reference (%q, %v)", label, p, got, gerr, want, werr)
		}
	}
	want, got := ref.export(), d.Export()
	if len(got) != len(want) {
		t.Fatalf("%s: Export holds %d objects; reference %d", label, len(got), len(want))
	}
	for i, e := range got {
		w := want[i]
		if e.Path != w.Path || !bytes.Equal(e.Data, w.Data) || e.Created.UnixNano() != w.Created {
			t.Fatalf("%s: Export[%d] = (%s, %q, %d); reference (%s, %q, %d)",
				label, i, e.Path, e.Data, e.Created.UnixNano(), w.Path, w.Data, w.Created)
		}
	}
}

// legacyFrame frames payload as a line of the legacy JSON format.
func legacyFrame(payload string) []byte {
	return fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
}

// wantBinary fails unless the snapshot and WAL of dir, where present and
// not empty, are in the binary format.
func wantBinary(t *testing.T, label, dir string) {
	t.Helper()
	for _, name := range []string{snapshotFile, walFile} {
		img, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		if len(img) > 0 && img[0] != recordTag {
			t.Fatalf("%s: %s still starts %q; want a binary record", label, name, img[:min(len(img), 12)])
		}
	}
}

// TestDurableReadsAcrossCompaction: readers loop on GetInternal while the
// owner compacts over and over — every round re-points the index into a
// fresh snapshot, renames it over the old one and truncates the WAL — and a
// follower installs the owner's image just as often. No read may fail or
// return bytes of another object; -race checks the locking.
func TestDurableReadsAcrossCompaction(t *testing.T) {
	t.Parallel()
	const keys, rounds = 48, 60
	owner := mustOpen(t, t.TempDir(), DurableOptions{CompactEvery: -1})
	follower := mustOpen(t, t.TempDir(), DurableOptions{CompactEvery: -1})
	defer owner.Close()
	defer follower.Close()
	key := func(i int) string { return EventPath(fmt.Sprintf("job-%d", i%5), i) }
	body := func(i, round int) []byte {
		return []byte(fmt.Sprintf("object %d|round %d|%s", i, round, strings.Repeat("z", i*7)))
	}
	for i := 0; i < keys; i++ {
		if err := commit1(owner, key(i), body(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	image, _, err := owner.SnapshotImage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.InstallSnapshot(image); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r, d := range []*DurableStore{owner, owner, follower} {
		wg.Add(1)
		go func(r int, d *DurableStore) {
			defer wg.Done()
			for n := r; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := n * 7 % keys
				got, err := d.GetInternal(key(i))
				if err != nil || !bytes.HasPrefix(got, []byte(fmt.Sprintf("object %d|", i))) {
					errs <- fmt.Errorf("reader %d: GetInternal(%s) = (%q, %v)", r, key(i), got, err)
					return
				}
			}
		}(r, d)
	}
	for round := 1; round <= rounds && len(errs) == 0; round++ {
		for i := round % 3; i < keys; i += 3 {
			if err := commit1(owner, key(i), body(i, round)); err != nil {
				t.Fatal(err)
			}
		}
		if err := owner.Compact(); err != nil {
			t.Fatal(err)
		}
		image, _, err := owner.SnapshotImage()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := follower.InstallSnapshot(image); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	wantExportsEqual(t, "after the rounds", owner, follower)
}

// flipPayloadByte changes the first byte of payload in the named file of
// dir, as a disk fault would, and fails unless payload is there exactly
// once.
func flipPayloadByte(t *testing.T, dir, file string, payload []byte) {
	t.Helper()
	path := filepath.Join(dir, file)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(img, payload)
	if at < 0 || bytes.Count(img, payload) != 1 {
		t.Fatalf("payload %q is not in %s exactly once", payload, file)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{img[at] ^ 0x20}, int64(at)); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCorruptPayloadFailsRead: a payload byte flipped on disk, in the
// WAL or in the snapshot, makes its read fail with ErrCorrupt — never other
// bytes — while every other object still reads. A compaction refuses to
// seal the damaged span into a fresh snapshot, and Export leaves it out.
func TestDurableCorruptPayloadFailsRead(t *testing.T) {
	t.Parallel()
	for _, file := range []string{walFile, snapshotFile} {
		t.Run(file, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			d := mustOpen(t, dir, DurableOptions{CompactEvery: -1})
			defer d.Close()
			victim, other := []byte("the payload a disk fault hits"), []byte("an intact neighbour")
			if err := d.Commit(context.Background(), []Entry{{Path: "models/u/a.model", Data: victim}, {Path: "models/u/b.model", Data: other}}); err != nil {
				t.Fatal(err)
			}
			if file == snapshotFile {
				if err := d.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			flipPayloadByte(t, dir, file, victim)

			if got, err := d.GetInternal("models/u/a.model"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("read of the damaged payload = (%q, %v); want ErrCorrupt", got, err)
			}
			tok := d.Sign("models/", PermRead, time.Hour)
			if _, err := d.Get(tok, "models/u/a.model"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("token read of the damaged payload: err = %v; want ErrCorrupt", err)
			}
			if got, err := d.GetInternal("models/u/b.model"); err != nil || !bytes.Equal(got, other) {
				t.Fatalf("intact neighbour = (%q, %v)", got, err)
			}
			if err := d.Compact(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("compaction over a damaged payload: err = %v; want ErrCorrupt", err)
			}
			if _, _, err := d.SnapshotImage(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("snapshot image over a damaged payload: err = %v; want ErrCorrupt", err)
			}
			if got := d.Export(); len(got) != 1 || got[0].Path != "models/u/b.model" {
				t.Fatalf("Export = %+v; want only the intact neighbour", got)
			}
		})
	}
}

// TestDurableOpensForeignRendering: a legacy WAL record or snapshot that
// is valid JSON but not in the rendering the legacy writer used (other key
// order, spacing, escapes inside the base64) still opens: the open-time
// rewrite reads it through encoding/json, so every object reads back,
// both files are binary afterwards, and a second open reads the same.
func TestDurableOpensForeignRendering(t *testing.T) {
	t.Parallel()
	alpha, beta := base64.StdEncoding.EncodeToString([]byte("alpha")), base64.StdEncoding.EncodeToString([]byte("beta"))
	for _, tc := range []struct {
		name      string
		snap, wal []byte
		seq       uint64
	}{
		{"wal", nil, append(
			legacyFrame(`{"op":"put","seq":1,"data":"`+alpha+`","path":"models/u/a.model","created":5}`),
			legacyFrame(`{"seq":2, "op":"batch","entries":[{"path":"models/u/b.model","data":"`+beta+`","created":6},{"created":7,"path":"events/j/run-000000.jsonl"}]}`)...), 2},
		{"snapshot", legacyFrame(`{"version":1,"wal_seq":2,"entries":[{"path":"models/u/a.model","data":"` + alpha + `","created":5},{"path":"models/u/b.model","data":"` + beta + `","created":6},{"path":"events/j/run-000000.jsonl","created":7}]}`), nil, 2},
		{"escaped-base64", nil, legacyFrame(`{"seq":1,"op":"batch","entries":[{"path":"models/u/a.model","data":"` + alpha[:2] + `\n` + alpha[2:] + `","created":5},{"path":"models/u/b.model","data":"` + beta + `","created":6},{"path":"events/j/run-000000.jsonl","created":7}]}`), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			if tc.snap != nil {
				if err := os.WriteFile(filepath.Join(dir, snapshotFile), tc.snap, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			if tc.wal != nil {
				if err := os.WriteFile(filepath.Join(dir, walFile), tc.wal, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			clock := resilience.NewFakeClock(time.Unix(100, 0))
			d := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
			ref := New([]byte("k"))
			ref.putAt("models/u/a.model", []byte("alpha"), 5)
			ref.putAt("models/u/b.model", []byte("beta"), 6)
			ref.putAt("events/j/run-000000.jsonl", nil, 7)
			paths := []string{"models/u/a.model", "models/u/b.model", "events/j/run-000000.jsonl"}
			wantReadsMatch(t, "opened", ref, d, paths)
			wantBinary(t, "opened", dir)
			if d.Seq() != tc.seq {
				t.Fatalf("Seq after open = %d; want %d", d.Seq(), tc.seq)
			}
			d.abandon()
			re := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
			defer re.Close()
			wantReadsMatch(t, "reopened", ref, re, paths)
		})
	}
}

// legacyExport is the state the committed legacy directory
// (testdata/legacy, written by the JSON-format store) holds: a snapshot
// through seq 4, then WAL records 5–11 with an overwrite, a batch, an
// empty payload, a del, a sweep and a put, and half of record 12, never
// acknowledged.
var legacyExport = []snapEntry{
	{Path: "appcache/app_cache.json", Created: 1700000006000000000},
	{Path: "events/j/run-000000.jsonl", Data: []byte("{\"query_id\":\"s\",\"time_ms\":100}\n"), Created: 1700000001000000000},
	{Path: "events/j/run-000001.jsonl", Data: []byte("{\"query_id\":\"s\",\"time_ms\":101}\n"), Created: 1700000005000000000},
	{Path: "index/u/s/j-000000", Created: 1700000001000000000},
	{Path: "index/u/s/j-000001", Created: 1700000005000000000},
	{Path: "models/u/a.model", Data: []byte("alpha-v2"), Created: 1700000004000000000},
	{Path: "models/u/b.model", Data: []byte("beta"), Created: 1700000008000000000},
	{Path: "models/u/esc \"q\" \\ <&> \u2028.model", Data: []byte("\x00\x01\x02\xff\n\""), Created: 1700000002000000000},
}

// copyLegacyDir copies the committed legacy directory into a fresh one.
func copyLegacyDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{snapshotFile, walFile} {
		img, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
		if err != nil {
			t.Fatal(err)
		}
		if !isLegacy(img) {
			t.Fatalf("testdata/legacy/%s is not in the legacy format", name)
		}
		if err := os.WriteFile(filepath.Join(dir, name), img, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// wantLegacyState opens dir and requires the committed legacy directory's
// state, in binary files, then the same state again after a reopen.
func wantLegacyState(t *testing.T, label, dir string) {
	t.Helper()
	for _, pass := range []string{"opened", "reopened"} {
		d := mustOpen(t, dir, DurableOptions{CompactEvery: -1})
		if got := exportOf(d); !reflect.DeepEqual(got, legacyExport) {
			t.Fatalf("%s, %s: Export diverged from the legacy state:\n got=%+v\nwant=%+v", label, pass, got, legacyExport)
		}
		if d.Seq() != 11 {
			t.Fatalf("%s, %s: Seq = %d; want 11", label, pass, d.Seq())
		}
		wantBinary(t, label+", "+pass, dir)
		d.abandon()
	}
}

// TestDurableOpensLegacyDirectory: a data directory written by the JSON-
// format store opens with the state it held — the torn tail dropped — is
// binary afterwards, and reopens identical. A store opened on it takes new
// writes that survive a further reopen.
func TestDurableOpensLegacyDirectory(t *testing.T) {
	t.Parallel()
	dir := copyLegacyDir(t)
	wantLegacyState(t, "legacy", dir)
	d := mustOpen(t, dir, DurableOptions{CompactEvery: -1})
	if err := commit1(d, "models/u/after.model", []byte("binary")); err != nil {
		t.Fatal(err)
	}
	want := exportOf(d)
	d.abandon()
	re := mustOpen(t, dir, DurableOptions{CompactEvery: -1})
	defer re.Close()
	if got := exportOf(re); !reflect.DeepEqual(got, want) {
		t.Fatalf("write after the rewrite did not survive a reopen:\n got=%+v\nwant=%+v", got, want)
	}
}
