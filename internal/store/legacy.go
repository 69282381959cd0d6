// Old data directories. Releases before the binary record (wal.go) wrote
// the WAL as JSON lines and the snapshot as one JSON document, each framed
// as
//
//	<8 lowercase hex digits: IEEE CRC32 of payload> <payload JSON>\n
//
// with payloads in base64. A file whose first byte is a hex digit is in
// that format. Open reads it once through encoding/json and rewrites it as
// binary records, file by file through temp + fsync + rename, before the
// normal binary replay runs; nothing else reads JSON.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
)

// isLegacy reports whether a file's contents are in the legacy format.
func isLegacy(image []byte) bool {
	return len(image) > 0 && (image[0] >= '0' && image[0] <= '9' || image[0] >= 'a' && image[0] <= 'f')
}

// unframe validates one legacy line (without its trailing newline) and
// returns the payload.
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

// decodeWALRecord reads the legacy line that starts at b[0], with scanWAL's
// decode signature; it reports no spans.
func decodeWALRecord(b []byte, spans []int) (walRecord, int, []int, error) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return walRecord{}, 0, spans, fmt.Errorf("store: legacy WAL line is torn")
	}
	payload, err := unframe(b[:nl])
	if err != nil {
		return walRecord{}, 0, spans, err
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return walRecord{}, 0, spans, fmt.Errorf("store: decode WAL record: %v", err)
	}
	return rec, nl + 1, spans, nil
}

// snapshot is a legacy snapshot document.
type snapshot struct {
	Version int         `json:"version"`
	WALSeq  uint64      `json:"wal_seq"`
	Entries []snapEntry `json:"entries"`
}

// decodeSnapshot parses a legacy snapshot document.
func decodeSnapshot(data []byte) (snapshot, error) {
	line, ok := bytes.CutSuffix(data, []byte("\n"))
	if !ok {
		return snapshot{}, fmt.Errorf("store: snapshot image is truncated")
	}
	payload, err := unframe(line)
	if err != nil {
		return snapshot{}, err
	}
	var s snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return snapshot{}, fmt.Errorf("store: decode snapshot: %v", err)
	}
	if s.Version != snapshotVersion {
		return snapshot{}, fmt.Errorf("store: snapshot version %d not supported (want %d)", s.Version, snapshotVersion)
	}
	return s, nil
}

// transcodeSnapshot rewrites a legacy snapshot document as one binary
// image and returns the image.
func (d *DurableStore) transcodeSnapshot(legacy []byte) ([]byte, error) {
	s, err := decodeSnapshot(legacy)
	if err != nil {
		return nil, err
	}
	image, _ := appendWALRecord(nil, walRecord{Seq: s.WALSeq, Op: opHead, Count: uint64(len(s.Entries))}, nil)
	for _, e := range s.Entries {
		image, _ = appendWALRecord(image, walRecord{Op: opPut, Path: e.Path, Data: e.Data, Created: e.Created}, nil)
	}
	return image, d.transcodeLocked(snapshotTemp, snapshotFile, image)
}

// transcodeWAL rewrites the valid prefix of a legacy WAL, past afterSeq,
// as binary records with the same sequence numbers, and returns the new
// log. A head gap fails with ErrWALGap and leaves the file as it is.
func (d *DurableStore) transcodeWAL(legacy []byte, afterSeq uint64) ([]byte, error) {
	lines, _, validLen, err := scanWAL(legacy, afterSeq, decodeWALRecord)
	if err != nil {
		return nil, err
	}
	var image []byte
	for _, l := range lines {
		image, _ = appendWALRecord(image, l.rec, nil)
	}
	if dropped := int64(len(legacy)) - validLen; dropped > 0 {
		d.logf("store: recovery dropped %d invalid legacy WAL byte(s) after offset %d", dropped, validLen)
	}
	return image, d.transcodeLocked(walTemp, walFile, image)
}

// transcodeLocked puts image in place of the legacy file name through tmp.
func (d *DurableStore) transcodeLocked(tmp, name string, image []byte) error {
	f, err := d.replaceLocked(tmp, name, image)
	if err != nil {
		return fmt.Errorf("store: rewrite legacy %s: %w", name, err)
	}
	f.Close()
	d.logf("store: rewrote legacy %s as %d binary byte(s)", name, len(image))
	return d.crashLocked(CrashPostRename)
}
