package store

import (
	"bytes"
	"encoding/base64"
	"testing"
	"testing/quick"
)

// TestAppendWALRecordMatchesEncode is the WAL fast path's compatibility
// property: appendWALRecord must produce byte-identical framed lines to the
// json.Marshal-based encodeWALRecord for every record shape, so logs written
// by either encoder replay through the same decoder.
func TestAppendWALRecordMatchesEncode(t *testing.T) {
	t.Parallel()
	fixed := []walRecord{
		{Seq: 1, Op: opPut, Path: "models/a.gob", Data: []byte{1, 2, 3}, Created: 1234},
		{Seq: 2, Op: opDel, Path: "models/a.gob"},
		{Seq: 3, Op: opSweep, Paths: []string{"x", "y/z", "with space"}},
		{Seq: 18446744073709551615, Op: opPut, Path: `esc "quote" \slash`, Created: -5},
		{Seq: 7, Op: opPut, Path: "unicode/日本/ログ", Data: []byte{}},
		{Seq: 8, Op: opPut, Path: "html<&>" + string(rune(0x2028)), Data: bytes.Repeat([]byte{0xFF}, 300)},
		{Seq: 9, Op: ""},
		{Seq: 10, Op: opPut, Path: "ctrl\x01\ttab"},
		{Seq: 11, Op: opBatch, Entries: []snapEntry{
			{Path: "events/j/run-000000.jsonl", Data: []byte("payload"), Created: 77},
			{Path: "index/u/sig/j-000000", Created: 0},
			{Path: `esc "batch" \entry`, Data: []byte{}, Created: -3},
		}},
		{Seq: 12, Op: opBatch, Entries: []snapEntry{{Path: "solo", Created: 1}}},
	}
	for i, rec := range fixed {
		want, err := encodeWALRecord(rec)
		if err != nil {
			t.Fatalf("fixture %d: encodeWALRecord: %v", i, err)
		}
		got, spans := appendWALRecord(nil, rec, nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("fixture %d:\n got %q\nwant %q", i, got, want)
		}
		// Each reported span is where a payload's base64 lies in the line.
		for j, off := range spans {
			data := recordPayload(rec, j)
			if len(data) == 0 {
				continue // an empty payload is omitted, and has no span
			}
			if b64 := base64.StdEncoding.EncodeToString(data); string(got[off:off+len(b64)]) != b64 {
				t.Fatalf("fixture %d payload %d: span at %d does not hold its base64", i, j, off)
			}
		}
		// And the fast line must decode back to the same record when valid.
		if validWALOp(rec) && rec.Seq != 0 {
			back, err := decodeWALRecord(got[:len(got)-1])
			if err != nil {
				t.Fatalf("fixture %d: decode of fast line: %v", i, err)
			}
			if back.Seq != rec.Seq || back.Op != rec.Op || back.Path != rec.Path {
				t.Fatalf("fixture %d: round trip drifted: %+v vs %+v", i, back, rec)
			}
		}
	}
	f := func(seq uint64, op, path string, paths []string, data []byte, created int64, entryPaths []string, entryData []byte) bool {
		rec := walRecord{Seq: seq, Op: op, Path: path, Paths: paths, Data: data, Created: created}
		for i, p := range entryPaths {
			e := snapEntry{Path: p, Created: created + int64(i)}
			if i%2 == 0 {
				e.Data = entryData
			}
			rec.Entries = append(rec.Entries, e)
		}
		want, err := encodeWALRecord(rec)
		if err != nil {
			return true
		}
		got, _ := appendWALRecord(nil, rec, nil)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendWALRecordReusesBuffer pins the in-place reuse contract: a second
// render into the same backing array must not allocate a new one.
func TestAppendWALRecordReusesBuffer(t *testing.T) {
	t.Parallel()
	buf, _ := appendWALRecord(nil, walRecord{Seq: 1, Op: opPut, Path: "a", Data: []byte("payload")}, nil)
	grown, _ := appendWALRecord(buf[:0], walRecord{Seq: 2, Op: opDel, Path: "b"}, nil)
	if &grown[0] != &buf[0] {
		t.Fatal("small record did not reuse the existing buffer")
	}
	want, err := encodeWALRecord(walRecord{Seq: 2, Op: opDel, Path: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(grown, want) {
		t.Fatalf("reused render drifted: %q vs %q", grown, want)
	}
}
