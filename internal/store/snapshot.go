// Snapshot encoding for the durable store. A snapshot is the full store
// state at one WAL sequence number, written as a single CRC-framed JSON
// document. Snapshots are always produced atomically — written to a
// temporary file, synced, then renamed over the live name — so the live
// snapshot is either the complete old state or the complete new state,
// never a torn mix.
//
// The durable store renders images itself, one entry at a time, byte-
// identical to encodeSnapshot: that is what lets its index point into the
// image it wrote, and lets a compaction build the next image by copying
// each payload's base64 span out of the files that already hold it.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"github.com/rockhopper-db/rockhopper/internal/jsonz"
)

// On-disk layout inside a durable store directory.
const (
	snapshotFile = "snapshot.json"
	snapshotTemp = "snapshot.tmp"
	walFile      = "wal.log"
)

// snapshotVersion guards against format drift across releases.
const snapshotVersion = 1

// snapshot is the durable image of the whole store.
type snapshot struct {
	// Version is snapshotVersion.
	Version int `json:"version"`
	// WALSeq is the last WAL sequence number folded into Entries; replay
	// skips WAL records at or below it.
	WALSeq uint64 `json:"wal_seq"`
	// Entries is the full object set, sorted by path.
	Entries []snapEntry `json:"entries"`
}

// encodeSnapshot renders a snapshot as one framed line: the reference
// encoding the store's own renderer below must reproduce byte for byte.
func encodeSnapshot(s snapshot) ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("store: encode snapshot: %w", err)
	}
	return frame(payload), nil
}

// appendSnapshotHead starts a snapshot image at dst: the frame's checksum
// placeholder and the document up to its first entry.
func appendSnapshotHead(dst []byte, walSeq uint64) []byte {
	dst = append(dst, "00000000 "...)
	dst = append(dst, `{"version":`...)
	dst = jsonz.AppendInt(dst, snapshotVersion)
	dst = append(dst, `,"wal_seq":`...)
	dst = jsonz.AppendUint(dst, walSeq)
	return append(dst, `,"entries":[`...)
}

// appendSnapshotEntry appends one entry whose payload is n base64 characters
// long, leaving those n bytes for the caller to fill, and returns the offset
// they start at (meaningless when n is 0: an empty payload is omitted).
func appendSnapshotEntry[S ~string | ~[]byte](dst []byte, first bool, path S, created int64, n int) ([]byte, int) {
	if !first {
		dst = append(dst, ',')
	}
	dst = append(dst, `{"path":`...)
	dst = jsonz.AppendString(dst, path)
	at := len(dst) + len(`,"data":"`)
	if n > 0 {
		dst = append(dst, `,"data":"`...)
		dst = slices.Grow(dst, n+1)[:at+n]
		dst = append(dst, '"')
	}
	dst = append(dst, `,"created":`...)
	dst = jsonz.AppendInt(dst, created)
	return append(dst, '}'), at
}

// finishSnapshot closes an image appendSnapshotHead started at dst[0], once
// every entry's payload is in place, and seals its frame.
func finishSnapshot(dst []byte) []byte {
	return sealFrame(append(dst, "]}"...), 0)
}

// decodeSnapshot parses a snapshot image. Unlike WAL corruption — expected
// after a crash, recovered by prefix truncation — a corrupt snapshot means
// the atomic-rename contract was violated (manual edit, disk fault) and is
// surfaced as an error rather than silently treated as empty state.
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
