package store

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// wantNothingHeld fails unless every payload of d is located in its files:
// everything this store writes is in its own rendering, so a held payload
// means the renderers drifted apart.
func wantNothingHeld(t *testing.T, label string, d *DurableStore) {
	t.Helper()
	d.ix.mu.RLock()
	defer d.ix.mu.RUnlock()
	if d.held != nil {
		t.Fatalf("%s: %d payload(s) held in memory; want every one located on disk", label, len(d.held))
	}
}

// FuzzSnapshotRender holds the store's snapshot renderer to encodeSnapshot:
// for any entry set the image must be byte-identical, and every located span
// must decode, through its CRC check, to its entry's data.
func FuzzSnapshotRender(f *testing.F) {
	f.Add(uint64(7), []byte("models/u/a.model\x00alpha\x00events/j/run-000000.jsonl\x00\x00index/u/s/j-000000\x00"))
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1<<63), []byte("esc \"q\" \\ <&> \x00\xff\xfe\x00\x01ctrl\t\x00"+strings.Repeat("x", 300)))
	f.Fuzz(func(t *testing.T, walSeq uint64, raw []byte) {
		parts := bytes.Split(raw, []byte{0})
		snap := snapshot{Version: snapshotVersion, WALSeq: walSeq, Entries: []snapEntry{}}
		for i := 0; i+1 < len(parts); i += 2 {
			e := snapEntry{Path: string(parts[i]), Created: int64(walSeq) - int64(i)*int64(len(parts[i+1]))}
			if len(parts[i+1]) > 0 {
				e.Data = parts[i+1]
			}
			snap.Entries = append(snap.Entries, e)
		}
		want, err := encodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		image, es := ownSnapshot(snap)
		if !bytes.Equal(image, want) {
			t.Fatalf("renderer drifted from encodeSnapshot:\n got %q\nwant %q", image, want)
		}
		for i, e := range es {
			l := e.val
			if l.file() != inSnap || e.key != snap.Entries[i].Path || e.created != snap.Entries[i].Created {
				t.Fatalf("entry %d: slot %+v does not describe %+v", i, e, snap.Entries[i])
			}
			if l.n == 0 {
				if len(snap.Entries[i].Data) != 0 {
					t.Fatalf("entry %d: %d-byte payload located as empty", i, len(snap.Entries[i].Data))
				}
				continue
			}
			got, err := decodeSpan(nil, image[l.off():l.off()+int64(l.n)], l)
			if err != nil || !bytes.Equal(got, snap.Entries[i].Data) {
				t.Fatalf("entry %d: span decodes to (%q, %v); want %q", i, got, err, snap.Entries[i].Data)
			}
		}
	})
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

// flipPayloadByte changes the first base64 character of payload's span in
// the named file of dir to another valid one, as a disk fault would, and
// fails unless that span is there exactly once.
func flipPayloadByte(t *testing.T, dir, file string, payload []byte) {
	t.Helper()
	path := filepath.Join(dir, file)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	span := []byte(`"` + base64.StdEncoding.EncodeToString(payload) + `"`)
	at := bytes.Index(img, span)
	if at < 0 || bytes.Count(img, span) != 1 {
		t.Fatalf("payload %q is not in %s exactly once", payload, file)
	}
	if img[at+1] == 'A' {
		img[at+1] = 'B'
	} else {
		img[at+1] = 'A'
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(img[at+1:at+2], int64(at+1)); err != nil {
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

// TestDurableOpensForeignRendering: a WAL record or snapshot image that is
// valid JSON but not this store's own rendering (other key order, spacing,
// escapes) has no span the index can point at. It must still replay, and
// the store folds it into a snapshot of its own at open, so afterwards
// nothing is held in memory and every object reads back. A follower
// receiving the same bytes as replicated frames or a shipped image ends the
// same way.
func TestDurableOpensForeignRendering(t *testing.T) {
	t.Parallel()
	framed := func(payload string) []byte { return frame([]byte(payload)) }
	alpha, beta := base64.StdEncoding.EncodeToString([]byte("alpha")), base64.StdEncoding.EncodeToString([]byte("beta"))
	for _, tc := range []struct {
		name      string
		snap, wal []byte
		seq       uint64
	}{
		{"wal", nil, append(
			framed(`{"op":"put","seq":1,"data":"`+alpha+`","path":"models/u/a.model","created":5}`),
			framed(`{"seq":2, "op":"batch","entries":[{"path":"models/u/b.model","data":"`+beta+`","created":6},{"created":7,"path":"events/j/run-000000.jsonl"}]}`)...), 2},
		{"snapshot", framed(`{"version":1,"wal_seq":2,"entries":[{"path":"models/u/a.model","data":"` + alpha + `","created":5},{"path":"models/u/b.model","data":"` + beta + `","created":6},{"path":"events/j/run-000000.jsonl","created":7}]}`), nil, 2},
		{"escaped-base64", nil, framed(`{"seq":1,"op":"batch","entries":[{"path":"models/u/a.model","data":"` + alpha[:2] + `\n` + alpha[2:] + `","created":5},{"path":"models/u/b.model","data":"` + beta + `","created":6},{"path":"events/j/run-000000.jsonl","created":7}]}`), 1},
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
			wantNothingHeld(t, "opened", d)
			if d.Seq() != tc.seq {
				t.Fatalf("Seq after open = %d; want %d", d.Seq(), tc.seq)
			}
			d.abandon()
			re := mustOpen(t, dir, DurableOptions{Clock: clock, CompactEvery: -1})
			defer re.Close()
			wantReadsMatch(t, "reopened", ref, re, paths)

			// A follower receives the same bytes over the wire.
			follower := mustOpen(t, t.TempDir(), DurableOptions{Clock: clock, CompactEvery: -1})
			defer follower.Close()
			if tc.snap != nil {
				if _, err := follower.InstallSnapshot(tc.snap); err != nil {
					t.Fatal(err)
				}
			} else if _, err := follower.ApplyReplicated(context.Background(), tc.wal); err != nil {
				t.Fatal(err)
			}
			wantReadsMatch(t, "follower", ref, follower, paths)
			wantNothingHeld(t, "follower", follower)
		})
	}
}
