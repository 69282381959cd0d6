package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

// referenceReplay is an independent WAL decoder for the fuzz oracle: it
// re-implements the record, checksum, and sequencing rules from the format
// documentation (wal.go, and legacy.go for a log whose first byte is a hex
// digit) without calling the store's decoders, then applies the surviving
// records to a plain in-memory store. If the store and this decoder ever
// disagree on a byte image, one of them has drifted from the spec. gap
// reports a log whose first record starts past seq 1 (with no snapshot):
// acknowledged records are missing from the head, and opening must FAIL
// with ErrWALGap rather than recover.
func referenceReplay(data []byte) (ref *Store, gap bool) {
	ref = New([]byte("k"))
	next := refRecord
	if len(data) > 0 && strings.IndexByte("0123456789abcdef", data[0]) >= 0 {
		next = refLegacyRecord
	}
	var prev uint64
	for len(data) > 0 {
		var rec walRecord
		var ok bool
		rec, data, ok = next(data)
		if !ok {
			break
		}
		valid := rec.Seq != 0
		switch rec.Op {
		case opPut, opDel:
			valid = valid && rec.Path != ""
		case opSweep:
			valid = valid && rec.Path == "" && len(rec.Paths) > 0
		case opBatch:
			valid = valid && rec.Path == "" && len(rec.Paths) == 0 && len(rec.Entries) > 0
			for _, e := range rec.Entries {
				if e.Path == "" {
					valid = false
				}
			}
		default:
			valid = false
		}
		if !valid {
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

// refLegacyRecord reads one legacy line: 8 hex digits of CRC, a space, the
// JSON record, a newline.
func refLegacyRecord(data []byte) (walRecord, []byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return walRecord{}, nil, false // torn tail
	}
	line := data[:nl]
	if len(line) < 10 || line[8] != ' ' {
		return walRecord{}, nil, false
	}
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil || crc32.ChecksumIEEE(line[9:]) != uint32(sum) {
		return walRecord{}, nil, false
	}
	var rec walRecord
	if err := json.Unmarshal(line[9:], &rec); err != nil {
		return walRecord{}, nil, false
	}
	return rec, data[nl+1:], true
}

// refRecord reads one binary record: the tag, a shortest-form uvarint body
// length, the body, and the body's CRC32, little-endian; then the body's
// fields, which must fill it exactly.
func refRecord(data []byte) (walRecord, []byte, bool) {
	if len(data) < 1 || data[0] != 0xB1 {
		return walRecord{}, nil, false
	}
	r := refReader{b: data[1:], ok: true}
	size := r.uvarint()
	if !r.ok || len(r.b) < 4 || size > uint64(len(r.b))-4 {
		return walRecord{}, nil, false
	}
	body, rest := r.b[:size], r.b[size:]
	if binary.LittleEndian.Uint32(rest) != crc32.ChecksumIEEE(body) {
		return walRecord{}, nil, false
	}
	r = refReader{b: body, ok: true}
	rec := walRecord{Seq: r.uvarint(), Op: walOp(r.byte())}
	switch rec.Op {
	case opPut:
		rec.Path, rec.Data, rec.Created = string(r.str()), r.str(), r.int64()
	case opDel:
		rec.Path = string(r.str())
	case opSweep:
		for n := r.uvarint(); r.ok && n > 0; n-- {
			rec.Paths = append(rec.Paths, string(r.str()))
		}
	case opBatch:
		for n := r.uvarint(); r.ok && n > 0; n-- {
			rec.Entries = append(rec.Entries, snapEntry{Path: string(r.str()), Data: r.str(), Created: r.int64()})
		}
	}
	if !r.ok || len(r.b) != 0 {
		return walRecord{}, nil, false
	}
	return rec, rest[4:], true
}

// refReader consumes fields from b; ok turns false at the first field that
// does not fit or a uvarint not in its shortest form.
type refReader struct {
	b  []byte
	ok bool
}

func (r *refReader) uvarint() uint64 {
	var v uint64
	for i := 0; i < len(r.b) && i < 10; i++ {
		c := r.b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if (c == 0 && i > 0) || (i == 9 && c > 1) {
				break // a padded or overflowing encoding
			}
			r.b = r.b[i+1:]
			return v
		}
	}
	r.ok = false
	return 0
}

func (r *refReader) byte() byte {
	if len(r.b) == 0 {
		r.ok = false
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *refReader) str() []byte {
	n := r.uvarint()
	if !r.ok || n > uint64(len(r.b)) {
		r.ok = false
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *refReader) int64() int64 {
	if len(r.b) < 8 {
		r.ok = false
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// validWALImage builds a well-formed 7-record log for the seed corpus.
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
		img, _ = appendWALRecord(img, rec, nil)
	}
	return img
}

// FuzzWALReplay feeds arbitrary byte images to the durable store as its WAL,
// binary records or, from a hex digit on, legacy JSON lines:
// opening must never panic, must recover exactly the longest valid record
// prefix (checked against an independent decoder) — failing open only on a
// head gap, where acknowledged records are provably missing — and must
// leave a store that accepts new writes and survives a second reopen.
func FuzzWALReplay(f *testing.F) {
	valid := validWALImage(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-7])         // torn tail
	f.Add([]byte{})                     // empty log
	f.Add([]byte("not a wal at all\n")) // garbage
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // corrupt a middle record
	f.Add(flipped)
	gapImg, _ := appendWALRecord(nil, walRecord{Seq: 7, Op: opPut, Path: "models/u/a.model"}, nil)
	f.Add(gapImg) // head gap: log starts past seq 1
	// Legacy JSON lines, rewritten as records when the store opens.
	f.Add([]byte("00000000 {}\n")) // framed but invalid record
	f.Add(append(legacyFrame(`{"seq":1,"op":"put","path":"models/u/a.model","data":"YWxwaGE=","created":5}`),
		legacyFrame(`{"seq":2,"op":"sweep","paths":["models/u/a.model"]}`)...))
	f.Add(legacyFrame(`{"seq":4,"op":"del","path":"x"}`)) // legacy head gap

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
