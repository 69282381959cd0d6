// Replication surface of the durable store. A shard owner ships every WAL
// record, verbatim, to follower stores as a frame; a follower applies
// frames through ApplyReplicated, which enforces the same strict sequence
// continuity the recovery scan does. Because frames are shipped
// byte-for-byte — CRC and creation timestamps included — the follower's
// applied record stream is identical to the owner's log, and its replayed
// state is byte-identical to the owner's durable state at the same
// sequence number.
//
// Catch-up uses the snapshot format: a follower that detects a sequence gap
// (it was down, or the owner's shipping buffer overflowed) installs a full
// SnapshotImage from the owner, verbatim, and resumes frame application
// from the snapshot's sequence number. On promote, the surviving node
// absorbs the follower store's Export into its own primary via Commit,
// whose entries carry their creation timestamps so retention clocks
// survive failover.
package store

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// ErrReplicaGap marks a replicated frame batch that skips past the
// follower's next expected sequence number. The follower cannot apply it —
// records in between are missing — and must catch up from a snapshot.
var ErrReplicaGap = errors.New("store: replicated frames skip past the next expected sequence")

// Seq returns the last durably applied WAL sequence number. It takes no
// lock: an ingest reads it right after its own commit to know which
// replication to wait for, and must not queue behind another committer's
// fsync or a whole compaction.
func (d *DurableStore) Seq() uint64 { return d.seq.Load() }

// Export returns a deep copy of the full store state, sorted by path. Two
// stores are byte-identical exactly when their Exports are equal. A payload
// that fails its checksum is logged and left out.
func (d *DurableStore) Export() []Entry {
	es, err := d.export()
	if err != nil {
		d.logf("store: export: %v", err)
	}
	out := make([]Entry, len(es))
	for i, e := range es {
		out[i] = Entry{Path: e.Path, Data: e.Data, Created: time.Unix(0, e.Created)}
	}
	return out
}

// export reads every object, in path order, with one pread of its payload
// and the creation time after it. It returns every readable entry, and the
// first read error.
func (d *DurableStore) export() ([]snapEntry, error) {
	d.ix.mu.RLock()
	defer d.ix.mu.RUnlock()
	out := make([]snapEntry, 0, d.ix.lenLocked())
	var first error
	d.ix.eachLocked(func(key []byte, l *loc) {
		p := string(key)
		b, err := d.readLocked(p, *l)
		if err != nil {
			first = cmp.Or(first, err)
			return
		}
		e := snapEntry{Path: p, Created: int64(binary.LittleEndian.Uint64(b[l.n:]))}
		if l.n > 0 {
			e.Data = b[:l.n:l.n]
		}
		out = append(out, e)
	})
	return out, first
}

// ApplyReplicated appends a batch of verbatim WAL frames shipped from a
// shard owner and applies them to the index. Frames are records in the
// owner's on-disk format, back to back; they are validated (CRC, shape,
// sequence) before a single byte reaches the follower's log.
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
	seq := d.seq.Load()
	if d.down != nil {
		return seq, d.down
	}
	var (
		accepted []walLine
		buf      []byte
		spans    []int
	)
	for off := 0; off < len(frames); {
		rec, n, sp, err := decodeRecord(frames[off:], spans)
		if err == nil && !validWALOp(rec) {
			err = fmt.Errorf("store: invalid WAL record seq=%d op=%d path=%q", rec.Seq, rec.Op, rec.Path)
		}
		if err != nil {
			return seq, fmt.Errorf("store: replicated frame at offset %d: %w", off, err)
		}
		next := seq + uint64(len(accepted)) + 1
		switch {
		case rec.Seq <= seq:
			// Redelivered prefix: already durable here, skip silently.
		case rec.Seq == next:
			accepted = append(accepted, walLine{rec: rec, off: int64(len(buf)), spans: sp[len(spans):len(sp):len(sp)]})
			buf = append(buf, frames[off:off+n]...)
		default:
			return seq, fmt.Errorf("%w: got seq=%d, want seq=%d", ErrReplicaGap, rec.Seq, next)
		}
		spans = sp
		off += n
	}
	if len(accepted) == 0 {
		return seq, nil
	}
	last := accepted[len(accepted)-1].rec.Seq
	sp := d.tracer.StartRemote(sc, "replica_apply", "store")
	sp.Annotate("%d frame(s) through seq %d", len(accepted), last)
	status := "ok"
	defer func() { sp.Finish(status) }()
	if _, err := d.wal.Write(buf); err != nil {
		status = "error"
		return seq, d.latchLocked(fmt.Errorf("%w: replicated WAL append: %v", ErrCrashed, err))
	}
	if !d.noSync {
		fsp := d.tracer.StartRemote(sp.Context(), "wal_fsync", "store")
		start := d.clock.Now()
		//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
		if err := d.wal.Sync(); err != nil {
			fsp.Finish("error")
			status = "error"
			return seq, d.latchLocked(fmt.Errorf("%w: replicated WAL sync: %v", ErrCrashed, err))
		}
		d.fsyncSeconds.Observe(d.clock.Now().Sub(start).Seconds())
		fsp.Finish("ok")
	}
	base := d.walSize
	d.walSize += int64(len(buf))
	for _, l := range accepted {
		d.applyLocked(l.rec, d.locsLocked(l.rec, base+l.off, l.spans))
	}
	d.seq.Store(last)
	d.walCount += len(accepted)
	d.walAppends.Add(float64(len(accepted)))
	//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
	d.maybeCompactLocked()
	return last, nil
}

// SnapshotImage renders the full store state as a snapshot image in the
// on-disk format, without touching the disk, plus the sequence number it
// covers. Owners serve it to followers that fell behind the frame stream.
func (d *DurableStore) SnapshotImage() ([]byte, uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	seq := d.seq.Load()
	if d.down != nil {
		return nil, seq, d.down
	}
	image, _, err := d.imageLocked(seq)
	if err != nil {
		return nil, seq, err
	}
	return image, seq, nil
}

// InstallSnapshot replaces the store's entire state with a shipped snapshot
// image — the follower catch-up path after a sequence gap. The image is
// validated, then written verbatim with the same temp + rename + dir-sync
// discipline compaction uses, and the WAL is reset so subsequent
// replicated frames extend a clean log. Installing an image older than the
// current state is refused: replication never rewinds acknowledged history.
func (d *DurableStore) InstallSnapshot(image []byte) (uint64, error) {
	es, walSeq, err := decodeImage(image)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	seq := d.seq.Load()
	if d.down != nil {
		return seq, d.down
	}
	if walSeq < seq {
		return seq, fmt.Errorf("store: refusing snapshot rewind from seq=%d to seq=%d", seq, walSeq)
	}
	//rocklint:allow deadlockcycle -- snapshot install under d.mu IS the catch-up serialization point: the follower may not apply frames while the image is half-written, so the sync blocks by design
	f, err := d.replaceLocked(snapshotTemp, snapshotFile, image)
	if err != nil {
		return seq, fmt.Errorf("store: write shipped snapshot: %w", err)
	}
	d.resetLocked(es, f)
	d.seq.Store(walSeq)
	d.snapSeq, d.snapSize = walSeq, int64(len(image))
	d.walCount, d.swept = 0, false
	d.truncateWALLocked()
	return walSeq, nil
}
