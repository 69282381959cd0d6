package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

// referenceReplay is an independent WAL decoder for the fuzz oracle: it
// re-implements the framing, checksum, and sequencing rules from the format
// documentation (wal.go) without calling scanWAL, then applies the surviving
// records to a plain in-memory store. If scanWAL and this decoder ever
// disagree on a byte image, one of them has drifted from the spec. gap
// reports a log whose first record starts past seq 1 (with no snapshot):
// acknowledged records are missing from the head, and opening must FAIL
// with ErrWALGap rather than recover.
func referenceReplay(data []byte) (ref *Store, gap bool) {
	ref = New([]byte("k"))
	var prev uint64
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail
		}
		line := data[off : off+nl]
		off += nl + 1
		if len(line) < 10 || line[8] != ' ' {
			break
		}
		sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
		if err != nil || crc32.ChecksumIEEE(line[9:]) != uint32(sum) {
			break
		}
		var rec walRecord
		if err := json.Unmarshal(line[9:], &rec); err != nil {
			break
		}
		valid := false
		switch rec.Op {
		case opPut, opDel:
			valid = rec.Path != ""
		case opSweep:
			valid = rec.Path == "" && len(rec.Paths) > 0
		case opBatch:
			valid = rec.Path == "" && len(rec.Paths) == 0 && len(rec.Entries) > 0
			for _, e := range rec.Entries {
				if e.Path == "" {
					valid = false
				}
			}
		}
		if rec.Seq == 0 || !valid {
			break
		}
		if prev == 0 {
			if rec.Seq != 1 {
				return nil, true
			}
		} else if rec.Seq != prev+1 {
			break
		}
		prev = rec.Seq
		switch rec.Op {
		case opPut:
			ref.putAt(rec.Path, rec.Data, rec.Created)
		case opDel:
			ref.Delete(rec.Path)
		case opSweep:
			for _, p := range rec.Paths {
				ref.Delete(p)
			}
		case opBatch:
			for _, e := range rec.Entries {
				ref.putAt(e.Path, e.Data, e.Created)
			}
		}
	}
	return ref, false
}

// validWALImage builds a well-formed 4-record log for the seed corpus.
func validWALImage(tb testing.TB) []byte {
	tb.Helper()
	var img []byte
	recs := []walRecord{
		{Seq: 1, Op: opPut, Path: "models/u/a.model", Data: []byte("alpha"), Created: 9000},
		{Seq: 2, Op: opPut, Path: "events/j/run-000000.jsonl", Data: []byte("e0"), Created: 9001},
		{Seq: 3, Op: opDel, Path: "events/j/run-000000.jsonl"},
		{Seq: 4, Op: opPut, Path: "models/u/a.model", Data: []byte("alpha-v2"), Created: 9002},
		{Seq: 5, Op: opPut, Path: "events/j/run-000001.jsonl", Data: []byte("e1"), Created: 9003},
		{Seq: 6, Op: opSweep, Paths: []string{"events/j/run-000001.jsonl", "events/j/run-000002.jsonl"}},
		{Seq: 7, Op: opBatch, Entries: []snapEntry{
			{Path: "events/j/run-000003.jsonl", Data: []byte("e3"), Created: 9004},
			{Path: "index/u/sig/j-000003", Created: 9004},
		}},
	}
	for _, rec := range recs {
		line, err := encodeWALRecord(rec)
		if err != nil {
			tb.Fatal(err)
		}
		img = append(img, line...)
	}
	return img
}

// FuzzWALReplay feeds arbitrary byte images to the durable store as its WAL:
// opening must never panic, must recover exactly the longest valid record
// prefix (checked against an independent decoder) — failing open only on a
// head gap, where acknowledged records are provably missing — and must
// leave a store that accepts new writes and survives a second reopen.
func FuzzWALReplay(f *testing.F) {
	valid := validWALImage(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-7])         // torn tail
	f.Add([]byte{})                     // empty log
	f.Add([]byte("00000000 {}\n"))      // framed but invalid record
	f.Add([]byte("not a wal at all\n")) // garbage line
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // corrupt a middle record
	f.Add(flipped)
	gapImg, err := encodeWALRecord(walRecord{Seq: 7, Op: opPut, Path: "models/u/a.model"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gapImg) // head gap: log starts past seq 1

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o600); err != nil {
			t.Fatal(err)
		}
		clock := resilience.NewFakeClock(time.Unix(50000, 0))
		d, err := OpenDurable(dir, []byte("k"), DurableOptions{
			Clock: clock, CompactEvery: -1, NoSync: true,
		})
		ref, gap := referenceReplay(data)
		if gap {
			if !errors.Is(err, ErrWALGap) {
				t.Fatalf("head-gapped WAL must refuse to open with ErrWALGap, got %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("corrupt WAL must recover, not fail open: %v", err)
		}
		if got, want := exportOf(d), exportOf(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered state != longest valid prefix:\n got=%+v\n want=%+v", got, want)
		}
		// Recovery truncated the junk, so the log must be writable again and
		// the new record must survive a reopen.
		if err := commit1(d, "probe/after-fuzz", []byte("ok")); err != nil {
			t.Fatalf("store not writable after recovery: %v", err)
		}
		ref.putAt("probe/after-fuzz", []byte("ok"), clock.Now().UnixNano())
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		d.abandon()
		re, err := OpenDurable(dir, []byte("k"), DurableOptions{
			Clock: clock, CompactEvery: -1, NoSync: true,
		})
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer re.Close()
		if got, want := exportOf(re), exportOf(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("second recovery diverged:\n got=%+v\n want=%+v", got, want)
		}
	})
}
