// Replication surface of the durable store. A shard owner ships every WAL
// frame, verbatim, to follower stores; a follower applies frames through
// ApplyReplicated, which enforces the same strict sequence continuity the
// recovery scan does. Because frames are shipped byte-for-byte — CRC prefix
// and creation timestamps included — the follower's applied record stream
// is identical to the owner's log, and its replayed state is byte-identical
// to the owner's durable state at the same sequence number.
//
// Catch-up uses the snapshot format: a follower that detects a sequence gap
// (it was down, or the owner's shipping buffer overflowed) installs a full
// SnapshotImage from the owner and resumes frame application from the
// snapshot's sequence number. On promote, the surviving node absorbs the
// follower store's Export into its own primary via Commit, whose entries
// carry their creation timestamps so retention clocks survive failover.
package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// ErrReplicaGap marks a replicated frame batch that skips past the
// follower's next expected sequence number. The follower cannot apply it —
// records in between are missing — and must catch up from a snapshot.
var ErrReplicaGap = errors.New("store: replicated frames skip past the next expected sequence")

// Seq returns the last durably applied WAL sequence number.
func (d *DurableStore) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Export returns a deep copy of the full store state, sorted by path. Two
// stores are byte-identical exactly when their Exports are equal.
func (d *DurableStore) Export() []Entry {
	es := d.mem.export()
	out := make([]Entry, len(es))
	for i, e := range es {
		out[i] = Entry{Path: e.Path, Data: e.Data, Created: time.Unix(0, e.Created)}
	}
	return out
}

// ApplyReplicated appends a batch of verbatim WAL frames shipped from a
// shard owner and applies them to the in-memory image. Frames are newline-
// terminated lines in the owner's on-disk format; they are validated (CRC,
// shape, sequence) before a single byte reaches the follower's log.
//
// Continuity rules mirror recovery: frames at or below the current sequence
// are skipped (idempotent redelivery), the first frame above it must be
// exactly seq+1 — otherwise nothing is applied and ErrReplicaGap is
// returned so the caller can fall back to snapshot catch-up — and the
// accepted run must chain without gaps. The whole accepted run is written
// with one Write and one fsync, amortizing the way group commit does.
//
// The returned sequence is the follower's post-apply sequence number; it is
// valid even when an error is returned. ctx carries the shipping request's
// trace identity, so the follower's apply + fsync surface as child spans of
// the owner's replicate span in the cross-node tree.
func (d *DurableStore) ApplyReplicated(ctx context.Context, frames []byte) (uint64, error) {
	sc := telemetry.SpanFrom(ctx)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down != nil {
		return d.seq, d.down
	}
	var (
		accepted []walRecord
		buf      []byte
	)
	off := 0
	for off < len(frames) {
		nl := bytes.IndexByte(frames[off:], '\n')
		if nl < 0 {
			return d.seq, fmt.Errorf("store: replicated frame batch has a torn tail at offset %d", off)
		}
		line := frames[off : off+nl]
		rec, err := decodeWALRecord(line)
		if err != nil {
			return d.seq, fmt.Errorf("store: replicated frame at offset %d: %w", off, err)
		}
		next := d.seq + uint64(len(accepted)) + 1
		switch {
		case rec.Seq <= d.seq:
			// Redelivered prefix: already durable here, skip silently.
		case rec.Seq == next:
			accepted = append(accepted, rec)
			buf = append(buf, frames[off:off+nl+1]...)
		default:
			return d.seq, fmt.Errorf("%w: got seq=%d, want seq=%d", ErrReplicaGap, rec.Seq, next)
		}
		off += nl + 1
	}
	if len(accepted) == 0 {
		return d.seq, nil
	}
	sp := d.tracer.StartRemote(sc, "replica_apply", "store")
	sp.Annotate("%d frame(s) through seq %d", len(accepted), accepted[len(accepted)-1].Seq)
	status := "ok"
	defer func() { sp.Finish(status) }()
	if _, err := d.wal.Write(buf); err != nil {
		status = "error"
		return d.seq, d.latchLocked(fmt.Errorf("%w: replicated WAL append: %v", ErrCrashed, err))
	}
	if !d.noSync {
		fsp := d.tracer.StartRemote(sp.Context(), "wal_fsync", "store")
		start := d.clock.Now()
		//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
		if err := d.wal.Sync(); err != nil {
			fsp.Finish("error")
			status = "error"
			return d.seq, d.latchLocked(fmt.Errorf("%w: replicated WAL sync: %v", ErrCrashed, err))
		}
		d.fsyncSeconds.Observe(d.clock.Now().Sub(start).Seconds())
		fsp.Finish("ok")
	}
	for _, rec := range accepted {
		d.applyLocked(rec)
	}
	d.seq = accepted[len(accepted)-1].Seq
	d.walCount += len(accepted)
	d.walAppends.Add(float64(len(accepted)))
	//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
	d.maybeCompactCountLocked()
	return d.seq, nil
}

// applyLocked applies one decoded WAL record to the in-memory image — the
// shared interpretation used by recovery replay and follower apply.
func (d *DurableStore) applyLocked(rec walRecord) {
	switch rec.Op {
	case opPut:
		d.mem.putAt(rec.Path, rec.Data, rec.Created)
	case opDel:
		d.mem.remove(rec.Path)
	case opSweep:
		d.mem.remove(rec.Paths...)
	case opBatch:
		for _, e := range rec.Entries {
			d.mem.putAt(e.Path, e.Data, e.Created)
		}
	}
}

// SnapshotImage renders the full store state as a snapshot image in the
// on-disk format, without touching the disk, plus the sequence number it
// covers. Owners serve it to followers that fell behind the frame stream.
func (d *DurableStore) SnapshotImage() ([]byte, uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down != nil {
		return nil, d.seq, d.down
	}
	image, err := encodeSnapshot(snapshot{Version: snapshotVersion, WALSeq: d.seq, Entries: d.mem.export()})
	if err != nil {
		return nil, d.seq, err
	}
	return image, d.seq, nil
}

// InstallSnapshot replaces the store's entire state with a shipped snapshot
// image — the follower catch-up path after a sequence gap. The image is
// committed with the same temp + rename + dir-sync discipline compaction
// uses, then the WAL is reset so subsequent replicated frames extend a
// clean log. Installing an image older than the current state is refused:
// replication never rewinds acknowledged history.
func (d *DurableStore) InstallSnapshot(image []byte) (uint64, error) {
	snap, err := decodeSnapshot(image)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down != nil {
		return d.seq, d.down
	}
	if snap.WALSeq < d.seq {
		return d.seq, fmt.Errorf("store: refusing snapshot rewind from seq=%d to seq=%d", d.seq, snap.WALSeq)
	}
	tmp := filepath.Join(d.dir, snapshotTemp)
	//rocklint:allow deadlockcycle -- snapshot install under d.mu IS the catch-up serialization point: the follower may not apply frames while the image is half-written, so the sync blocks by design
	if err := writeFileSync(tmp, image); err != nil {
		return d.seq, fmt.Errorf("store: write shipped snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, snapshotFile)); err != nil {
		return d.seq, fmt.Errorf("store: commit shipped snapshot: %w", err)
	}
	//rocklint:allow deadlockcycle -- snapshot install under d.mu IS the catch-up serialization point: the follower may not apply frames while the image is half-written, so the sync blocks by design
	syncDir(d.dir)
	d.mem.resetTo(snap.Entries)
	d.seq, d.snapSeq = snap.WALSeq, snap.WALSeq
	d.walCount = 0
	d.lastSnap = d.clock.Now()
	if err := d.wal.Truncate(0); err != nil {
		// Safe to continue: replay skips records at or below snapSeq.
		d.logf("store: WAL truncate after shipped snapshot: %v", err)
	}
	return d.seq, nil
}
