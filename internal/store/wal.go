// Record encoding for the durable store. Every WAL mutation is one binary
// record, a replicated frame is the same bytes, and a snapshot image is a
// run of them (snapshot.go):
//
//	record = tag uvarint(len(body)) body crc
//	body   = uvarint(seq) op fields
//
// tag is recordTag, which is never an ASCII hex digit, so the first byte
// of a file tells a record from a legacy JSON line (legacy.go). crc is the
// IEEE CRC32 of body, 4 bytes little-endian. Where str is uvarint(len)
// followed by that many raw bytes and created is a fixed 8-byte
// little-endian Unix-nanosecond timestamp, the fields are:
//
//	put    str(path) str(data) created
//	del    str(path)
//	sweep  uvarint(n) n × str(path)
//	batch  uvarint(n) n × (str(path) str(data) created)
//	head   uvarint(version) uvarint(n)   (a snapshot image's first record)
//
// Every integer takes its shortest encoding and a body holds nothing past
// its fields, so a record has exactly one encoding: decoding and encoding
// again gives back the same bytes, and a payload lies raw at an offset
// the encoder reports, which is what the index points at.
//
// Records carry a strictly increasing sequence number, so replay can both
// detect corruption (CRC, framing, sequence gaps) and skip records already
// covered by a snapshot. Recovery keeps the longest valid prefix: the
// first torn, corrupt, or out-of-sequence record ends replay, and
// everything after it — valid-looking or not — is discarded, because a
// record is only trustworthy if every record before it is. One exception
// is not recoverable: a log whose FIRST record skips past the snapshot has
// lost acknowledged history from the head, which no crash produces, and
// opening fails with ErrWALGap instead of truncating the evidence.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
)

// recordTag opens every record.
const recordTag byte = 0xB1

// walOp is a record's operation; its value is the op byte on disk.
type walOp byte

// Record operations.
const (
	opPut walOp = 1 + iota
	opDel
	opSweep
	opBatch
	opHead
)

// opNames are the ops' names in legacy JSON records; a head has none.
var opNames = [...]string{opPut: "put", opDel: "del", opSweep: "sweep", opBatch: "batch"}

// UnmarshalText reads an op's name in a legacy JSON record.
func (o *walOp) UnmarshalText(b []byte) error {
	for op, name := range opNames {
		if name != "" && name == string(b) {
			*o = walOp(op)
			return nil
		}
	}
	return fmt.Errorf("store: unknown WAL op %q", b)
}

// ErrWALGap marks a log whose first record skips past the snapshot's
// sequence number: acknowledged mutations are missing, so the store refuses
// to open rather than silently discarding the evidence of the loss.
var ErrWALGap = errors.New("store: WAL begins past the snapshot sequence (acknowledged records lost)")

// walRecord is one durable mutation, or a snapshot image's head or entry.
type walRecord struct {
	// Seq is the strictly increasing record number: the WAL sequence a
	// head covers, and 0 for an image entry.
	Seq uint64 `json:"seq"`
	// Op is what the record does.
	Op walOp `json:"op"`
	// Path is the object path a put or del targets.
	Path string `json:"path,omitempty"`
	// Paths is the batch of paths one retention sweep reaps — a single
	// record (one append + fsync) no matter how many files expired.
	Paths []string `json:"paths,omitempty"`
	// Data is the put payload.
	Data []byte `json:"data,omitempty"`
	// Created is the put's creation timestamp, Unix nanoseconds, so replay
	// reconstructs retention state exactly.
	Created int64 `json:"created,omitempty"`
	// Entries is the group commit one batch op applies — many object writes
	// behind a single record (one append + fsync), and atomically on replay:
	// either the whole batch survives a crash or none of it does.
	Entries []snapEntry `json:"entries,omitempty"`
	// Count is the number of entries a head says follow it.
	Count uint64 `json:"-"`
}

// snapEntry is one object of a batch or a snapshot; it shares the walRecord
// field conventions.
type snapEntry struct {
	Path    string `json:"path"`
	Data    []byte `json:"data,omitempty"`
	Created int64  `json:"created"`
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen[T int | uint64](v T) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// strLen is the encoded length of an n-byte str field.
func strLen(n int) int { return uvarintLen(n) + n }

// putLen is the encoded length of a put's fields.
func putLen(path, data int) int { return strLen(path) + strLen(data) + 8 }

// bodyLen is the length of the body of rec, which is not a put.
func bodyLen(rec walRecord) int {
	n := uvarintLen(rec.Seq) + 1
	switch rec.Op {
	case opDel:
		n += strLen(len(rec.Path))
	case opSweep:
		n += uvarintLen(len(rec.Paths))
		for _, p := range rec.Paths {
			n += strLen(len(p))
		}
	case opBatch:
		n += uvarintLen(len(rec.Entries))
		for _, e := range rec.Entries {
			n += putLen(len(e.Path), len(e.Data))
		}
	case opHead:
		n += uvarintLen(snapshotVersion) + uvarintLen(rec.Count)
	}
	return n
}

func appendStr[S ~string | ~[]byte](dst []byte, s S) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendPutFields appends a put's fields with n bytes left for its payload
// at the returned offset.
func appendPutFields[S ~string | ~[]byte](dst []byte, path S, n int, created int64) ([]byte, int) {
	dst = binary.AppendUvarint(appendStr(dst, path), uint64(n))
	at := len(dst)
	dst = slices.Grow(dst, n+8)[:at+n]
	return binary.LittleEndian.AppendUint64(dst, uint64(created)), at
}

// appendPut appends a put record whose n-byte payload the caller fills in
// at the returned offset before sealRecord completes the record at head.
// It is how a snapshot image lays out an entry whose payload it copies
// from disk.
func appendPut[S ~string | ~[]byte](dst []byte, seq uint64, path S, n int, created int64) ([]byte, int) {
	dst = append(dst, recordTag)
	dst = binary.AppendUvarint(dst, uint64(uvarintLen(seq)+1+putLen(len(path), n)))
	dst = append(binary.AppendUvarint(dst, seq), byte(opPut))
	dst, at := appendPutFields(dst, path, n, created)
	return append(dst, 0, 0, 0, 0), at
}

// sealRecord writes the CRC of the record that starts at b[head], whose
// body is in place.
func sealRecord(b []byte, head int) []byte {
	size, k := binary.Uvarint(b[head+1:])
	body := b[head+1+k:][:size]
	binary.LittleEndian.PutUint32(b[head+1+k+int(size):], crc32.ChecksumIEEE(body))
	return b
}

// appendWALRecord appends rec as one record to dst. For each of the
// record's payloads — one for a put, one per entry for a batch — spans gets
// the offset in dst, relative to the record's start, where the payload's
// raw bytes begin: what the durable store's index points at. It allocates
// nothing beyond dst's and spans' growth, so the append/fsync hot path
// passes store-owned reusable buffers.
func appendWALRecord(dst []byte, rec walRecord, spans []int) ([]byte, []int) {
	head := len(dst)
	if rec.Op == opPut {
		var at int
		dst, at = appendPut(dst, rec.Seq, rec.Path, len(rec.Data), rec.Created)
		copy(dst[at:], rec.Data)
		return sealRecord(dst, head), append(spans, at-head)
	}
	dst = append(dst, recordTag)
	dst = binary.AppendUvarint(dst, uint64(bodyLen(rec)))
	dst = append(binary.AppendUvarint(dst, rec.Seq), byte(rec.Op))
	switch rec.Op {
	case opDel:
		dst = appendStr(dst, rec.Path)
	case opSweep:
		dst = binary.AppendUvarint(dst, uint64(len(rec.Paths)))
		for _, p := range rec.Paths {
			dst = appendStr(dst, p)
		}
	case opBatch:
		dst = binary.AppendUvarint(dst, uint64(len(rec.Entries)))
		for _, e := range rec.Entries {
			var at int
			dst, at = appendPutFields(dst, e.Path, len(e.Data), e.Created)
			copy(dst[at:], e.Data)
			spans = append(spans, at-head)
		}
	case opHead:
		dst = binary.AppendUvarint(dst, snapshotVersion)
		dst = binary.AppendUvarint(dst, rec.Count)
	}
	return sealRecord(append(dst, 0, 0, 0, 0), head), spans
}

// recordPayload returns the i-th payload of a put or batch record, in the
// order appendWALRecord reports their spans, and its creation time.
func recordPayload(rec walRecord, i int) ([]byte, int64) {
	if rec.Op == opPut {
		return rec.Data, rec.Created
	}
	return rec.Entries[i].Data, rec.Entries[i].Created
}

// fields reads a record's body. The first malformed field makes it bad,
// and every read after that returns zero values.
type fields struct {
	b   []byte // the record up to its CRC
	off int    // the next field's offset in b
	bad bool
}

func (f *fields) fail() { f.bad, f.off = true, len(f.b) }

func (f *fields) uvarint() uint64 {
	v, k := binary.Uvarint(f.b[f.off:])
	if k <= 0 || k != uvarintLen(v) {
		f.fail()
		return 0
	}
	f.off += k
	return v
}

// count reads an item count: at least one, and no more than the bytes left
// could hold.
func (f *fields) count() int {
	n := f.uvarint()
	if n == 0 || n > uint64(len(f.b)-f.off) {
		f.fail()
		return 0
	}
	return int(n)
}

// str reads a str field and returns its bytes, in place, and their offset.
func (f *fields) str() ([]byte, int) {
	n := f.uvarint()
	if n > uint64(len(f.b)-f.off) {
		f.fail()
		return nil, 0
	}
	at := f.off
	f.off += int(n)
	return f.b[at:f.off], at
}

func (f *fields) path() string {
	s, _ := f.str()
	return string(s)
}

func (f *fields) int64() int64 {
	if len(f.b)-f.off < 8 {
		f.fail()
		return 0
	}
	f.off += 8
	return int64(binary.LittleEndian.Uint64(f.b[f.off-8:]))
}

// put reads a put's fields, reporting the payload's offset in spans.
func (f *fields) put(spans []int) (snapEntry, []int) {
	e := snapEntry{Path: f.path()}
	data, at := f.str()
	if len(data) > 0 {
		e.Data = data
	}
	e.Created = f.int64()
	return e, append(spans, at)
}

// decodeRecord decodes the record that starts at b[0], returns it with its
// length, and appends its payloads' offsets, relative to b, to spans, as
// appendWALRecord reports them. Payloads alias b. The record is
// well-formed, not necessarily a valid WAL mutation: see validWALOp.
func decodeRecord(b []byte, spans []int) (walRecord, int, []int, error) {
	if len(b) == 0 || b[0] != recordTag {
		return walRecord{}, 0, spans, errors.New("store: no record tag")
	}
	size, k := binary.Uvarint(b[1:])
	if k <= 0 || k != uvarintLen(size) {
		return walRecord{}, 0, spans, errors.New("store: malformed record length")
	}
	if size > uint64(len(b)) || 1+k+int(size)+4 > len(b) {
		return walRecord{}, 0, spans, fmt.Errorf("store: record of %d bytes is torn at %d", size, len(b))
	}
	end := 1 + k + int(size)
	if got, want := crc32.ChecksumIEEE(b[1+k:end]), binary.LittleEndian.Uint32(b[end:]); got != want {
		return walRecord{}, 0, spans, fmt.Errorf("store: record checksum mismatch: %08x != %08x", got, want)
	}
	f := fields{b: b[:end], off: 1 + k}
	rec := walRecord{Seq: f.uvarint()}
	if f.off < end {
		rec.Op = walOp(f.b[f.off])
		f.off++
	}
	n := len(spans)
	switch rec.Op {
	case opPut:
		var e snapEntry
		e, spans = f.put(spans)
		rec.Path, rec.Data, rec.Created = e.Path, e.Data, e.Created
	case opDel:
		rec.Path = f.path()
	case opSweep:
		rec.Paths = make([]string, f.count())
		for i := range rec.Paths {
			rec.Paths[i] = f.path()
		}
	case opBatch:
		rec.Entries = make([]snapEntry, f.count())
		for i := range rec.Entries {
			rec.Entries[i], spans = f.put(spans)
		}
	case opHead:
		if v := f.uvarint(); v != snapshotVersion && !f.bad {
			return walRecord{}, 0, spans[:n], fmt.Errorf("store: snapshot version %d not supported (want %d)", v, snapshotVersion)
		}
		rec.Count = f.uvarint()
	default:
		f.fail()
	}
	if f.bad || f.off != end {
		return walRecord{}, 0, spans[:n], fmt.Errorf("store: malformed record body (seq=%d op=%d)", rec.Seq, rec.Op)
	}
	return rec, end + 4, spans, nil
}

// validWALOp checks that a record is a WAL mutation: it has a sequence
// number, puts and dels target exactly one path, sweeps carry a non-empty
// path batch, and group commits carry a non-empty entry batch with
// per-entry paths.
func validWALOp(rec walRecord) bool {
	if rec.Seq == 0 {
		return false
	}
	switch rec.Op {
	case opPut, opDel:
		return rec.Path != ""
	case opSweep:
		return rec.Path == "" && len(rec.Paths) > 0
	case opBatch:
		if rec.Path != "" || len(rec.Paths) > 0 || len(rec.Entries) == 0 {
			return false
		}
		for _, e := range rec.Entries {
			if e.Path == "" {
				return false
			}
		}
		return true
	}
	return false
}

// walLine is one record as it lies in a WAL image or a replicated batch.
type walLine struct {
	rec   walRecord
	off   int64 // where the record starts
	spans []int // its payloads' offsets from off
}

// scanWAL decodes the longest valid prefix of a WAL image, one record at
// a time with decode: decodeRecord, or the legacy line reader. afterSeq is
// the sequence number the on-disk snapshot already covers: records at or
// below it are scanned (they must still frame and chain correctly) but not
// returned; the rest come back with their offsets. validLen is the byte
// length of the valid prefix — the caller truncates the log there so new
// appends extend a clean file.
//
// A log whose first record skips past afterSeq+1 has lost acknowledged
// mutations; that is not crash damage (a crash tears the TAIL) and no
// automatic recovery is safe, so the scan fails with ErrWALGap — the
// caller refuses to open rather than truncating away the evidence.
func scanWAL(data []byte, afterSeq uint64, decode func([]byte, []int) (walRecord, int, []int, error)) (applied []walLine, lastSeq uint64, validLen int64, err error) {
	lastSeq = afterSeq
	var (
		prev  uint64
		spans []int
	)
	for off := 0; off < len(data); {
		rec, n, sp, derr := decode(data[off:], spans)
		if derr != nil || !validWALOp(rec) {
			break // torn tail or corruption: drop this record and everything after it
		}
		if prev == 0 {
			if rec.Seq > afterSeq+1 {
				return nil, afterSeq, 0, fmt.Errorf("%w: first record seq=%d, snapshot covers seq=%d", ErrWALGap, rec.Seq, afterSeq)
			}
		} else if rec.Seq != prev+1 {
			break // sequence break: the suffix is not a continuation
		}
		prev = rec.Seq
		if rec.Seq > afterSeq {
			applied = append(applied, walLine{rec: rec, off: int64(off), spans: sp[len(spans):len(sp):len(sp)]})
			lastSeq = rec.Seq
		}
		spans = sp
		off += n
		validLen = int64(off)
	}
	return applied, lastSeq, validLen, nil
}
