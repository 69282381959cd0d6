// Snapshot encoding for the durable store. A snapshot is the full store
// state at one WAL sequence number: a head record (wal.go) carrying that
// sequence number and the entry count, followed by one put record per
// object, sorted by path, each with sequence number 0. Snapshots are always
// produced atomically — written to a temporary file, synced, then renamed
// over the live name — so the live snapshot is either the complete old
// state or the complete new state, never a torn mix.
//
// An image is the same bytes on disk and on the wire: a follower installs
// the owner's image verbatim, and the index points at each payload where it
// lies in the image.
package store

import "fmt"

// On-disk layout inside a durable store directory. The names predate the
// binary format; legacy.go reads what older releases wrote under them.
const (
	snapshotFile = "snapshot.json"
	snapshotTemp = "snapshot.tmp"
	walFile      = "wal.log"
	walTemp      = "wal.tmp"
)

// snapshotVersion guards against format drift across releases.
const snapshotVersion = 1

// decodeImage validates a snapshot image and returns its objects, each
// located in the image, and the WAL sequence number it covers. Unlike WAL
// corruption — expected after a crash, recovered by prefix truncation — a
// corrupt snapshot means the atomic-rename contract was violated (manual
// edit, disk fault) or a peer shipped damage, and is surfaced as an error
// rather than silently treated as empty state.
func decodeImage(image []byte) ([]slot[loc], uint64, error) {
	head, off, spans, err := decodeRecord(image, nil)
	if err == nil && head.Op != opHead {
		err = fmt.Errorf("store: first record is op %d", head.Op)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: snapshot head: %w", err)
	}
	// An entry record takes at least 16 bytes: a count past that is
	// corrupt, and must not size the allocation.
	es := make([]slot[loc], 0, min(head.Count, uint64(len(image)/16)))
	for i := uint64(0); i < head.Count; i++ {
		rec, n, sp, err := decodeRecord(image[off:], spans[:0])
		if err == nil && (rec.Seq != 0 || rec.Op != opPut || rec.Path == "") {
			err = fmt.Errorf("store: not a snapshot entry (seq=%d op=%d)", rec.Seq, rec.Op)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("store: snapshot entry %d: %w", i, err)
		}
		es = append(es, slot[loc]{key: rec.Path, val: locate(inSnap, int64(off+sp[0]), rec.Data, rec.Created)})
		off += n
		spans = sp
	}
	if off != len(image) {
		return nil, 0, fmt.Errorf("store: snapshot has %d byte(s) past its %d entries", len(image)-off, head.Count)
	}
	return es, head.Seq, nil
}
