// Write-ahead log encoding for the durable store. Every mutation is one
// framed JSONL record:
//
//	<8 lowercase hex digits: IEEE CRC32 of payload> <payload JSON>\n
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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"

	"github.com/rockhopper-db/rockhopper/internal/jsonz"
)

// WAL operation codes.
const (
	opPut   = "put"
	opDel   = "del"
	opSweep = "sweep"
	opBatch = "batch"
)

// ErrWALGap marks a log whose first record skips past the snapshot's
// sequence number: acknowledged mutations are missing, so the store refuses
// to open rather than silently discarding the evidence of the loss.
var ErrWALGap = errors.New("store: WAL begins past the snapshot sequence (acknowledged records lost)")

// walRecord is one durable mutation.
type walRecord struct {
	// Seq is the strictly increasing record number.
	Seq uint64 `json:"seq"`
	// Op is opPut, opDel, opSweep, or opBatch.
	Op string `json:"op"`
	// Path is the object path a put or del targets.
	Path string `json:"path,omitempty"`
	// Paths is the batch of paths one retention sweep reaps — a single
	// record (one append + fsync) no matter how many files expired.
	Paths []string `json:"paths,omitempty"`
	// Data is the put payload (base64 on the wire via encoding/json).
	Data []byte `json:"data,omitempty"`
	// Created is the put's creation timestamp, Unix nanoseconds, so replay
	// reconstructs retention state exactly.
	Created int64 `json:"created,omitempty"`
	// Entries is the group commit one batch op applies — many object writes
	// behind a single record (one append + fsync), and atomically on replay:
	// either the whole batch survives a crash or none of it does.
	Entries []snapEntry `json:"entries,omitempty"`
}

// snapEntry is one object in a snapshot; it shares the walRecord field
// conventions.
type snapEntry struct {
	Path    string `json:"path"`
	Data    []byte `json:"data,omitempty"`
	Created int64  `json:"created"`
}

// frame wraps a payload in the CRC32 line format.
func frame(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+10)
	out = fmt.Appendf(out, "%08x ", crc32.ChecksumIEEE(payload))
	out = append(out, payload...)
	return append(out, '\n')
}

// unframe validates one line (without its trailing newline) and returns the
// payload.
func unframe(line []byte) ([]byte, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("store: malformed frame of %d bytes", len(line))
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("store: malformed frame checksum: %v", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return nil, fmt.Errorf("store: frame checksum mismatch: %08x != %08x", got, want)
	}
	return payload, nil
}

// encodeWALRecord renders one record as a framed line.
func encodeWALRecord(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode WAL record: %w", err)
	}
	return frame(payload), nil
}

// appendWALRecord appends rec as a framed line to dst, byte-identical to
// encodeWALRecord but without allocating beyond dst's and spans' growth: the
// payload is rendered in place after a reserved checksum prefix, then the
// CRC is written back into it. Record fields (strings, integers, byte blobs)
// have no failure mode, so unlike the json.Marshal path there is no error to
// return. The append/fsync hot path passes store-owned reusable buffers.
//
// For each of the record's payloads — one for a put, one per entry for a
// batch — spans gets the offset in dst, relative to the line's start, where
// the payload's base64 begins: what the durable store's index points at.
func appendWALRecord(dst []byte, rec walRecord, spans []int) ([]byte, []int) {
	head := len(dst)
	dst = append(dst, "00000000 "...)
	dst = append(dst, `{"seq":`...)
	dst = jsonz.AppendUint(dst, rec.Seq)
	dst = append(dst, `,"op":`...)
	dst = jsonz.AppendString(dst, rec.Op)
	if rec.Path != "" {
		dst = append(dst, `,"path":`...)
		dst = jsonz.AppendString(dst, rec.Path)
	}
	if len(rec.Paths) > 0 {
		dst = append(dst, `,"paths":[`...)
		for i, p := range rec.Paths {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonz.AppendString(dst, p)
		}
		dst = append(dst, ']')
	}
	if rec.Op == opPut {
		spans = append(spans, len(dst)-head+len(`,"data":"`))
	}
	if len(rec.Data) > 0 {
		dst = append(dst, `,"data":`...)
		dst = jsonz.AppendBase64(dst, rec.Data)
	}
	if rec.Created != 0 {
		dst = append(dst, `,"created":`...)
		dst = jsonz.AppendInt(dst, rec.Created)
	}
	if len(rec.Entries) > 0 {
		dst = append(dst, `,"entries":[`...)
		for i, e := range rec.Entries {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"path":`...)
			dst = jsonz.AppendString(dst, e.Path)
			spans = append(spans, len(dst)-head+len(`,"data":"`))
			if len(e.Data) > 0 {
				dst = append(dst, `,"data":`...)
				dst = jsonz.AppendBase64(dst, e.Data)
			}
			// snapEntry's created has no omitempty: always emitted.
			dst = append(dst, `,"created":`...)
			dst = jsonz.AppendInt(dst, e.Created)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return sealFrame(append(dst, '}'), head), spans
}

// sealFrame completes the frame that starts at dst[head] with the
// "00000000 " placeholder: it writes the CRC of everything after the
// placeholder into it and appends the newline.
func sealFrame(dst []byte, head int) []byte {
	sum := crc32.ChecksumIEEE(dst[head+9:])
	const hexDigits = "0123456789abcdef"
	for i := 7; i >= 0; i-- {
		dst[head+i] = hexDigits[sum&0xF]
		sum >>= 4
	}
	return append(dst, '\n')
}

// recordPayload returns the i-th payload of a put or batch record, in the
// order appendWALRecord reports their spans.
func recordPayload(rec walRecord, i int) []byte {
	if rec.Op == opPut {
		return rec.Data
	}
	return rec.Entries[i].Data
}

// decodeWALRecord parses and validates one framed line (without newline).
func decodeWALRecord(line []byte) (walRecord, error) {
	payload, err := unframe(line)
	if err != nil {
		return walRecord{}, err
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return walRecord{}, fmt.Errorf("store: decode WAL record: %v", err)
	}
	if rec.Seq == 0 || !validWALOp(rec) {
		return walRecord{}, fmt.Errorf("store: invalid WAL record seq=%d op=%q path=%q", rec.Seq, rec.Op, rec.Path)
	}
	return rec, nil
}

// validWALOp checks the op-specific shape of a decoded record: puts and
// dels target exactly one path, sweeps carry a non-empty path batch, and
// group commits carry a non-empty entry batch with per-entry paths.
func validWALOp(rec walRecord) bool {
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
	rec  walRecord
	line []byte // the framed line, without its newline
	off  int64  // where line starts
}

// scanWAL decodes the longest valid prefix of a WAL image. afterSeq is the
// sequence number the on-disk snapshot already covers: records at or below
// it are scanned (they must still frame and chain correctly) but not
// returned; the rest come back with their lines. validLen is the byte length of the valid prefix — the caller
// truncates the log there so new appends extend a clean file.
//
// A log whose first record skips past afterSeq+1 has lost acknowledged
// mutations; that is not crash damage (a crash tears the TAIL) and no
// automatic recovery is safe, so the scan fails with ErrWALGap — the
// caller refuses to open rather than truncating away the evidence.
func scanWAL(data []byte, afterSeq uint64) (applied []walLine, lastSeq uint64, validLen int64, err error) {
	lastSeq = afterSeq
	var prev uint64
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: the final write never completed
		}
		rec, derr := decodeWALRecord(data[off : off+nl])
		if derr != nil {
			break // corruption: drop this record and everything after it
		}
		if prev == 0 {
			if rec.Seq > afterSeq+1 {
				return nil, afterSeq, 0, fmt.Errorf("%w: first record seq=%d, snapshot covers seq=%d", ErrWALGap, rec.Seq, afterSeq)
			}
		} else if rec.Seq != prev+1 {
			break // sequence break: the suffix is not a continuation
		}
		prev = rec.Seq
		line := data[off : off+nl]
		off += nl + 1
		validLen = int64(off)
		if rec.Seq <= afterSeq {
			continue // already folded into the snapshot
		}
		applied = append(applied, walLine{rec: rec, line: line, off: validLen - int64(len(line)) - 1})
		lastSeq = rec.Seq
	}
	return applied, lastSeq, validLen, nil
}
