package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// codecFixtures are records of every shape, with edge-case paths, payloads
// and integers.
var codecFixtures = []walRecord{
	{Seq: 1, Op: opPut, Path: "models/a.gob", Data: []byte{1, 2, 3}, Created: 1234},
	{Seq: 2, Op: opDel, Path: "models/a.gob"},
	{Seq: 3, Op: opSweep, Paths: []string{"x", "y/z", "with space"}},
	{Seq: 18446744073709551615, Op: opPut, Path: `esc "quote" \slash`, Created: -5},
	{Seq: 7, Op: opPut, Path: "unicode/日本/ログ"},
	{Seq: 8, Op: opPut, Path: "html<&>" + string(rune(0x2028)), Data: bytes.Repeat([]byte{'\n'}, 300)},
	{Seq: 10, Op: opPut, Path: "ctrl\x01\ttab", Data: bytes.Repeat([]byte{0xB1}, 200)},
	{Seq: 11, Op: opBatch, Entries: []snapEntry{
		{Path: "events/j/run-000000.jsonl", Data: []byte("payload"), Created: 77},
		{Path: "index/u/sig/j-000000", Created: 0},
		{Path: `esc "batch" \entry`, Created: -3},
	}},
	{Seq: 12, Op: opBatch, Entries: []snapEntry{{Path: "solo", Created: 1}}},
	{Seq: 13, Op: opHead, Count: 3},
	{Seq: 0, Op: opPut, Path: "image/entry", Data: []byte("entry"), Created: 9},
}

// wantRoundTrip encodes rec, decodes the bytes back and fails unless the
// decode reports the same record, its length and every payload where the
// encoder put it.
func wantRoundTrip(t *testing.T, label string, rec walRecord) {
	t.Helper()
	b, spans := appendWALRecord([]byte("prefix"), rec, nil)
	b = b[len("prefix"):]
	got, n, gotSpans, err := decodeRecord(append(b, "trailing"...), nil)
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	if n != len(b) || !slices.Equal(gotSpans, spans) {
		t.Fatalf("%s: decoded %d bytes with spans %v; encoded %d with %v", label, n, gotSpans, len(b), spans)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("%s: round trip drifted:\n got %+v\nwant %+v", label, got, rec)
	}
	for i, off := range spans {
		if data, _ := recordPayload(rec, i); !bytes.Equal(b[off:off+len(data)], data) {
			t.Fatalf("%s payload %d: span at %d does not hold it", label, i, off)
		}
	}
}

// TestWALRecordRoundTrip: every record appendWALRecord writes decodes back
// to itself, with every payload raw at the span the encoder reported.
func TestWALRecordRoundTrip(t *testing.T) {
	t.Parallel()
	for i, rec := range codecFixtures {
		wantRoundTrip(t, "fixture "+string(rune('a'+i)), rec)
	}
	f := func(seq uint64, op uint8, path string, paths []string, data []byte, created int64, entryPaths []string, entryData []byte) bool {
		rec := walRecord{Seq: seq, Op: opPut + walOp(op%4), Created: created}
		switch rec.Op {
		case opPut:
			rec.Path, rec.Data = "p"+path, data
		case opDel:
			rec.Path, rec.Created = "p"+path, 0
		case opSweep:
			rec.Paths, rec.Created = append(paths, path), 0
		case opBatch:
			rec.Created = 0
			for i, p := range append(entryPaths, path) {
				e := snapEntry{Path: "p" + p, Created: created + int64(i)}
				if i%2 == 0 {
					e.Data = entryData
				}
				rec.Entries = append(rec.Entries, e)
			}
		}
		for i := range rec.Entries {
			if len(rec.Entries[i].Data) == 0 {
				rec.Entries[i].Data = nil
			}
		}
		if len(rec.Data) == 0 {
			rec.Data = nil
		}
		wantRoundTrip(t, "quick", rec)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendWALRecordReusesBuffer pins the in-place reuse contract: a second
// encode into the same backing array must not allocate a new one.
func TestAppendWALRecordReusesBuffer(t *testing.T) {
	t.Parallel()
	buf, _ := appendWALRecord(nil, walRecord{Seq: 1, Op: opPut, Path: "a", Data: []byte("payload")}, nil)
	grown, _ := appendWALRecord(buf[:0], walRecord{Seq: 2, Op: opDel, Path: "b"}, nil)
	if &grown[0] != &buf[0] {
		t.Fatal("small record did not reuse the existing buffer")
	}
	want, _ := appendWALRecord(nil, walRecord{Seq: 2, Op: opDel, Path: "b"}, nil)
	if !bytes.Equal(grown, want) {
		t.Fatalf("reused encode drifted: %q vs %q", grown, want)
	}
}

// FuzzRecord holds the record codec to its one-encoding rule: any bytes
// that decode as a record re-encode to exactly those bytes, with every
// reported span pointing at its payload; any bytes that decode as a
// snapshot image re-encode, from its located payloads, to exactly that
// image; and no input panics.
func FuzzRecord(f *testing.F) {
	for _, rec := range codecFixtures[:7] {
		b, _ := appendWALRecord(nil, rec, nil)
		f.Add(b)
	}
	image, _ := appendWALRecord(nil, walRecord{Seq: 7, Op: opHead, Count: 2}, nil)
	image, _ = appendWALRecord(image, walRecord{Op: opPut, Path: "models/u/a.model", Data: []byte("alpha"), Created: 5}, nil)
	image, _ = appendWALRecord(image, walRecord{Op: opPut, Path: "events/j/run-000000.jsonl", Created: 6}, nil)
	f.Add(image)
	f.Add(image[:len(image)-3])
	f.Add([]byte{recordTag, 0x80, 0x00}) // a non-shortest length
	f.Add([]byte(strings.Repeat("x", 40)))
	f.Fuzz(func(t *testing.T, b []byte) {
		if rec, n, spans, err := decodeRecord(b, nil); err == nil {
			again, want := appendWALRecord(nil, rec, nil)
			if !bytes.Equal(again, b[:n]) {
				t.Fatalf("record re-encodes differently:\n got %x\nwant %x", again, b[:n])
			}
			if !slices.Equal(spans, want) {
				t.Fatalf("decode reports spans %v; the encoder %v", spans, want)
			}
			for i, off := range spans {
				if data, _ := recordPayload(rec, i); !bytes.Equal(b[off:off+len(data)], data) {
					t.Fatalf("payload %d: span at %d does not hold it", i, off)
				}
			}
		}
		es, walSeq, err := decodeImage(b)
		if err != nil {
			return
		}
		again, _ := appendWALRecord(nil, walRecord{Seq: walSeq, Op: opHead, Count: uint64(len(es))}, nil)
		for _, e := range es {
			l := e.val
			if l.file() != inSnap {
				t.Fatalf("entry %s located outside the snapshot: %+v", e.key, l)
			}
			created := int64(binary.LittleEndian.Uint64(b[l.off()+int64(l.n):]))
			again, _ = appendWALRecord(again, walRecord{Op: opPut, Path: e.key, Data: b[l.off():][:l.n], Created: created}, nil)
			if got := locate(inSnap, l.off(), b[l.off():][:l.n], created); got != l {
				t.Fatalf("entry %s: locator %+v; its payload gives %+v", e.key, l, got)
			}
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("image re-encodes differently:\n got %x\nwant %x", again, b)
		}
	})
}
