// DurableStore persists the in-memory object store to disk: every mutation
// is appended to a CRC-framed write-ahead log before it is acknowledged,
// and the log is periodically compacted into an atomic snapshot. Opening a
// directory replays snapshot + WAL suffix back to byte-identical state —
// object bytes and creation timestamps included — so an autotuned restart
// keeps every trained model and every retention clock.
//
// Durability contract: a mutation is acknowledged (returns nil) only after
// its WAL record is on disk (fsync unless NoSync). Recovery after a crash
// yields a prefix-consistent state: every acknowledged mutation is present,
// no unacknowledged mutation is, and a torn final record is discarded.
//
// The CrashPoint hooks exist for the recovery test harness: they let tests
// kill the store at the exact filesystem states a real crash could produce
// (before a WAL write, mid-record, before and after the snapshot rename)
// and then prove that reopening the directory recovers correctly.
package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// CrashPoint identifies a fault-injection site inside the durability layer.
// The recovery test matrix drives one injected crash per point and asserts
// the reopened store matches the in-memory reference up to the last
// acknowledged mutation.
type CrashPoint int

// The injector's crash sites, in the order an operation reaches them.
const (
	// CrashPreWrite fires before any byte of a WAL record is written: the
	// mutation must be wholly absent after recovery.
	CrashPreWrite CrashPoint = iota
	// CrashMidRecord fires after half of a WAL record reached the disk — a
	// torn write. Recovery must drop the partial record.
	CrashMidRecord
	// CrashPreRename fires after the snapshot temp file is fully written
	// but before the atomic rename: recovery must use the old snapshot
	// plus the intact WAL.
	CrashPreRename
	// CrashPostRename fires after the rename but before the WAL is
	// truncated: recovery must use the new snapshot and skip the stale
	// WAL records it already covers.
	CrashPostRename
)

// String names the crash point for test output.
func (p CrashPoint) String() string {
	switch p {
	case CrashPreWrite:
		return "pre-write"
	case CrashMidRecord:
		return "mid-record"
	case CrashPreRename:
		return "pre-rename"
	case CrashPostRename:
		return "post-rename"
	}
	return fmt.Sprintf("CrashPoint(%d)", int(p))
}

// Errors reported by the durability layer.
var (
	// ErrCrashed marks a store killed by an injected fault or a WAL write
	// failure; it refuses further mutations so no acknowledgement can
	// outrun the log.
	ErrCrashed = errors.New("store: durable store is down")
	// ErrClosed marks a store after Close.
	ErrClosed = errors.New("store: durable store is closed")
)

// DurableOptions parameterizes OpenDurable. The zero value is production
// defaults: real clock, fsync on every append, compaction every
// DefaultCompactEvery records.
type DurableOptions struct {
	// Clock drives creation timestamps, retention sweeps, and the
	// time-based compaction schedule; nil means the wall clock.
	Clock resilience.Clock
	// SnapshotInterval is the cadence MaybeCompact honors; <= 0 disables
	// time-based compaction (record-count compaction still applies).
	SnapshotInterval time.Duration
	// CompactEvery snapshots after this many WAL records; 0 means
	// DefaultCompactEvery, negative disables record-count compaction.
	CompactEvery int
	// NoSync skips the per-record fsync. Tests use it; production should
	// not (an OS crash may then lose acknowledged records).
	NoSync bool
	// Logger receives durability diagnostics; nil silences them.
	Logger *log.Logger
	// Hooks is the crash-point injector: a non-nil error return kills the
	// store at that point, simulating process death. Nil disables
	// injection.
	Hooks func(CrashPoint) error
	// Metrics receives the durability instruments (WAL appends, fsync and
	// snapshot latencies, replayed record counts); nil discards them.
	Metrics *telemetry.Registry
	// OnAppend observes every durably appended WAL frame — the log-shipping
	// tap the fleet replicator hangs off. It is called under the store lock
	// immediately after the frame is on disk; the frame slice (trailing
	// newline included) is only valid for the duration of the call, so the
	// observer must copy it and must not call back into the store. sc is
	// the trace identity of the request that caused the frame (zero for
	// untraced work), so log shipping can carry causal parentage to the
	// followers. Nil disables the tap.
	OnAppend func(seq uint64, frame []byte, sc telemetry.SpanContext)
	// OnDown observes the transition into the latched-down state with its
	// cause — the flight recorder's crash-latch trigger. It is called once,
	// under the store lock (it must not call back into the store), and not
	// on a clean Close. Nil disables it.
	OnDown func(err error)
}

// DefaultCompactEvery is the record-count compaction threshold.
const DefaultCompactEvery = 4096

// DurableStore is an object store with snapshot + WAL persistence. It
// satisfies the backend's ObjectStore interface; reads are served from the
// in-memory image, mutations are logged before they are applied. All
// methods are safe for concurrent use.
type DurableStore struct {
	mem      *Store
	dir      string
	clock    resilience.Clock
	logger   *log.Logger
	hooks    func(CrashPoint) error
	onAppend func(seq uint64, frame []byte, sc telemetry.SpanContext)
	onDown   func(err error)

	// tracer mints the wal_append/wal_fsync spans of the commit path (nil
	// records nothing). Installed by SetTracer before traffic; it shares
	// the daemon's span ring so the WAL work shows up under the request's
	// causal tree at /api/trace.
	tracer *telemetry.Tracer

	interval     time.Duration
	compactEvery int
	noSync       bool

	walAppends      telemetry.Counter
	walReplayed     telemetry.Counter
	fsyncSeconds    telemetry.Histogram
	snapshotSeconds telemetry.Histogram

	mu       sync.Mutex
	wal      *os.File
	seq      uint64 // last sequence number durably assigned
	snapSeq  uint64 // sequence number the on-disk snapshot covers
	walCount int    // records appended since the last snapshot
	lastSnap time.Time
	down     error  // non-nil once the store refuses mutations (crash/close)
	lineBuf  []byte // reusable WAL line buffer (guarded by mu)
}

// OpenDurable opens (creating if needed) the durable store rooted at dir,
// replaying snapshot and WAL back to the last acknowledged state.
func OpenDurable(dir string, secret []byte, opts DurableOptions) (*DurableStore, error) {
	clock := opts.Clock
	if clock == nil {
		clock = resilience.RealClock{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open durable: %w", err)
	}
	mem := New(secret)
	mem.SetClock(clock.Now)
	d := &DurableStore{
		mem:          mem,
		dir:          dir,
		clock:        clock,
		logger:       opts.Logger,
		hooks:        opts.Hooks,
		onAppend:     opts.OnAppend,
		onDown:       opts.OnDown,
		interval:     opts.SnapshotInterval,
		compactEvery: opts.CompactEvery,
		noSync:       opts.NoSync,
	}
	if d.compactEvery == 0 {
		d.compactEvery = DefaultCompactEvery
	}
	// Bind instruments before replay so recovery itself is measured. The
	// nil-registry convention makes these discards when Metrics is unset.
	d.walAppends = opts.Metrics.Counter("rockhopper_wal_appends_total",
		"WAL records durably appended (acknowledged mutations).").With()
	d.walReplayed = opts.Metrics.Counter("rockhopper_wal_replayed_records_total",
		"WAL records replayed on open (crash-recovery work).").With()
	d.fsyncSeconds = opts.Metrics.Histogram("rockhopper_wal_fsync_seconds",
		"Per-record WAL fsync latency in seconds.", nil).With()
	d.snapshotSeconds = opts.Metrics.Histogram("rockhopper_wal_snapshot_seconds",
		"Snapshot (compaction) duration in seconds.", nil).With()
	// A leftover temp file is a snapshot that never committed (pre-rename
	// crash); the live snapshot is still authoritative.
	if err := os.Remove(filepath.Join(dir, snapshotTemp)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: open durable: %w", err)
	}
	if err := d.replay(); err != nil {
		return nil, err
	}
	d.lastSnap = clock.Now()
	return d, nil
}

// replay loads the snapshot, applies the WAL suffix, and truncates the log
// to its valid prefix so future appends extend a clean file.
func (d *DurableStore) replay() error {
	if data, err := os.ReadFile(filepath.Join(d.dir, snapshotFile)); err == nil {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return err
		}
		d.mem.resetTo(snap.Entries)
		d.seq, d.snapSeq = snap.WALSeq, snap.WALSeq
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: read snapshot: %w", err)
	}

	walPath := filepath.Join(d.dir, walFile)
	image, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: read WAL: %w", err)
	}
	recs, lastSeq, validLen, err := scanWAL(image, d.snapSeq)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		d.applyLocked(rec)
	}
	d.seq = lastSeq
	d.walCount = len(recs)
	d.walReplayed.Add(float64(len(recs)))

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open WAL: %w", err)
	}
	if int64(len(image)) > validLen {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate torn WAL tail: %w", err)
		}
		d.logf("store: recovery dropped %d invalid WAL byte(s) after offset %d", int64(len(image))-validLen, validLen)
	}
	d.wal = f
	return nil
}

func (d *DurableStore) logf(format string, args ...any) {
	if d.logger != nil {
		d.logger.Printf(format, args...)
	}
}

// Err reports why the store refuses mutations: nil while healthy,
// ErrCrashed (wrapped with the cause) after a durability failure,
// ErrClosed after Close. Reads keep working either way.
func (d *DurableStore) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.down
}

// SetTracer installs the span tracer for the WAL commit path. Call before
// the store sees traced traffic (the daemon wires the backend's tracer in
// right after constructing both).
func (d *DurableStore) SetTracer(tr *telemetry.Tracer) {
	d.mu.Lock()
	d.tracer = tr
	d.mu.Unlock()
}

// latchLocked records why the store now refuses mutations and fires the
// OnDown observer exactly once. Callers hold d.mu.
func (d *DurableStore) latchLocked(err error) error {
	d.down = err
	if d.onDown != nil {
		fn := d.onDown
		d.onDown = nil
		fn(err)
	}
	return d.down
}

// crashLocked consults the injector at one crash point; a non-nil hook
// error kills the store.
func (d *DurableStore) crashLocked(p CrashPoint) error {
	if d.hooks == nil {
		return nil
	}
	if err := d.hooks(p); err != nil {
		return d.latchLocked(fmt.Errorf("%w: injected crash at %s: %v", ErrCrashed, p, err))
	}
	return nil
}

// maxKeptLineBuf is the largest WAL line buffer kept between appends. The
// reuse exists for the common ≈ 300-byte single-event record; a batch or
// model record is let go after its write, or one large commit would pin its
// buffer for the store's life (a 512-run batch record: ≈ 0.2 MB, 12 % of the
// live heap on a long-history signature).
const maxKeptLineBuf = 4 << 10

// appendLocked writes one record to the WAL. On success the record is
// durable and the sequence counter advances; on any failure the store goes
// down, because a half-written log must not accept further appends. sc is
// the causing request's trace identity (zero for untraced work): it parents
// the wal_append/wal_fsync spans and rides the OnAppend tap so log shipping
// stays inside the same causal tree.
func (d *DurableStore) appendLocked(rec walRecord, sc telemetry.SpanContext) error {
	// Render into the store-owned buffer (mu is held): after warmup the
	// append path allocates nothing for framing.
	d.lineBuf = appendWALRecord(d.lineBuf[:0], rec)
	line := d.lineBuf
	if cap(line) > maxKeptLineBuf {
		d.lineBuf = nil
	}
	sp := d.tracer.StartRemote(sc, "wal_append", "store")
	sp.Annotate("seq %d (%d bytes)", rec.Seq, len(line))
	status := "ok"
	defer func() { sp.Finish(status) }()
	if err := d.crashLocked(CrashPreWrite); err != nil {
		status = "error"
		return err
	}
	if d.hooks != nil {
		if herr := d.hooks(CrashMidRecord); herr != nil {
			// Simulate the torn write: half the frame reaches the disk
			// before the process dies.
			if _, werr := d.wal.Write(line[:len(line)/2]); werr == nil {
				d.wal.Sync()
			}
			status = "error"
			return d.latchLocked(fmt.Errorf("%w: injected crash at %s: %v", ErrCrashed, CrashMidRecord, herr))
		}
	}
	if _, err := d.wal.Write(line); err != nil {
		status = "error"
		return d.latchLocked(fmt.Errorf("%w: WAL append: %v", ErrCrashed, err))
	}
	if !d.noSync {
		fsp := d.tracer.StartRemote(sp.Context(), "wal_fsync", "store")
		start := d.clock.Now()
		if err := d.wal.Sync(); err != nil {
			fsp.Finish("error")
			status = "error"
			return d.latchLocked(fmt.Errorf("%w: WAL sync: %v", ErrCrashed, err))
		}
		d.fsyncSeconds.Observe(d.clock.Now().Sub(start).Seconds())
		fsp.Finish("ok")
	}
	d.seq = rec.Seq
	d.walCount++
	d.walAppends.Inc()
	if d.onAppend != nil {
		d.onAppend(rec.Seq, line, sc)
	}
	return nil
}

// commitLocked is the one mutation path: refuse when down, log the record,
// apply it with the function replay and follower-apply use, then compact if
// the log has grown. Callers hold d.mu and leave rec.Seq unset.
func (d *DurableStore) commitLocked(rec walRecord, sc telemetry.SpanContext) error {
	if d.down != nil {
		return d.down
	}
	rec.Seq = d.seq + 1
	if err := d.appendLocked(rec, sc); err != nil {
		return err
	}
	d.applyLocked(rec)
	d.maybeCompactCountLocked()
	return nil
}

// Commit is the group-commit primitive and the store's only write: it logs
// the entries as ONE WAL record — one append and one fsync no matter how
// many — under the trace identity ctx carries, and returns nil only once
// that record is on disk. Replay applies the record all-or-nothing, so a
// crash can never surface a partial commit: batched ingest relies on this
// for event-file + index atomicity. Re-committing entries that carry their
// Created (the promote path's absorb) is idempotent.
func (d *DurableStore) Commit(ctx context.Context, entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	if err := checkEntries(entries); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock.Now()
	// One entry keeps the compact put record; more share a batch record.
	rec := walRecord{Op: opPut, Path: entries[0].Path, Data: entries[0].Data, Created: entries[0].createdOr(now)}
	if len(entries) > 1 {
		rec = walRecord{Op: opBatch, Entries: make([]snapEntry, len(entries))}
		for i, e := range entries {
			rec.Entries[i] = snapEntry{Path: e.Path, Data: e.Data, Created: e.createdOr(now)}
		}
	}
	//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
	return d.commitLocked(rec, telemetry.SpanFrom(ctx))
}

// Sign issues a scoped access token; tokens are stateless, so this is the
// in-memory implementation verbatim.
func (d *DurableStore) Sign(prefix string, perm Permission, ttl time.Duration) string {
	return d.mem.Sign(prefix, perm, ttl)
}

// Verify checks a token against a path and permission.
func (d *DurableStore) Verify(tok, p string, perm Permission) error {
	return d.mem.Verify(tok, p, perm)
}

// Put writes an object after verifying the write token.
func (d *DurableStore) Put(tok, p string, data []byte) error {
	if err := d.mem.Verify(tok, p, PermWrite); err != nil {
		return err
	}
	return d.Commit(context.Background(), []Entry{{Path: p, Data: data}})
}

// Get reads an object after verifying the read token.
func (d *DurableStore) Get(tok, p string) ([]byte, error) { return d.mem.Get(tok, p) }

// PutInternal is a one-entry Commit for callers with no error slot: a
// durability failure is logged and latched, so Err reports it and every
// later mutation fails fast rather than silently diverging from the log.
func (d *DurableStore) PutInternal(p string, data []byte) {
	if err := d.Commit(context.Background(), []Entry{{Path: p, Data: data}}); err != nil {
		d.logf("store: durable PutInternal %s: %v", p, err)
	}
}

// GetInternal reads without a token.
func (d *DurableStore) GetInternal(p string) ([]byte, error) { return d.mem.GetInternal(p) }

// PutBatch is Commit without a context.
func (d *DurableStore) PutBatch(entries []BatchEntry) error {
	return d.Commit(context.Background(), entries)
}

// List returns the paths under prefix, sorted.
func (d *DurableStore) List(prefix string) []string { return d.mem.List(prefix) }

// Len returns the number of stored objects.
func (d *DurableStore) Len() int { return d.mem.Len() }

// Delete removes an object; deleting a missing object is logged as a
// mutation all the same, keeping replay a pure function of the log.
func (d *DurableStore) Delete(p string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
	return d.commitLocked(walRecord{Op: opDel, Path: p}, telemetry.SpanContext{})
}

// CleanupOlderThan runs the retention sweep over expired event files and
// returns how many objects were reaped. The whole batch is one WAL record —
// one append + fsync no matter how many files expired, so a large sweep
// does not stall commits behind a per-file fsync loop — logged before any
// removal is applied, so the sweep is all-or-nothing across a crash.
func (d *DurableStore) CleanupOlderThan(retention time.Duration) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	reaped := d.mem.expiredEvents(retention)
	if len(reaped) == 0 {
		return 0
	}
	//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
	if err := d.commitLocked(walRecord{Op: opSweep, Paths: reaped}, telemetry.SpanContext{}); err != nil {
		d.logf("store: retention sweep of %d file(s) not logged: %v", len(reaped), err)
		return 0
	}
	return len(reaped)
}

// maybeCompactCountLocked compacts when the WAL has grown past the
// record-count threshold.
func (d *DurableStore) maybeCompactCountLocked() {
	if d.compactEvery <= 0 || d.walCount < d.compactEvery {
		return
	}
	if err := d.compactLocked(); err != nil {
		d.logf("store: compaction failed (WAL keeps growing): %v", err)
	}
}

// MaybeCompact takes a snapshot when SnapshotInterval has elapsed since
// the last one and there is anything to fold in. The daemon calls it from
// its housekeeping ticker.
func (d *DurableStore) MaybeCompact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down != nil {
		return d.down
	}
	if d.interval <= 0 || d.walCount == 0 || d.clock.Now().Sub(d.lastSnap) < d.interval {
		return nil
	}
	//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
	return d.compactLocked()
}

// Compact forces a snapshot now.
func (d *DurableStore) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down != nil {
		return d.down
	}
	//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
	return d.compactLocked()
}

// compactLocked folds the full store state into a new snapshot via
// write-temp + rename, then resets the WAL. A crash before the rename
// leaves the old snapshot + full WAL authoritative; a crash after it
// leaves stale WAL records that replay skips by sequence number — both
// recover to the identical state.
func (d *DurableStore) compactLocked() error {
	started := d.clock.Now()
	snap := snapshot{Version: snapshotVersion, WALSeq: d.seq, Entries: d.mem.export()}
	image, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	tmp := filepath.Join(d.dir, snapshotTemp)
	if err := writeFileSync(tmp, image); err != nil {
		return fmt.Errorf("store: write snapshot temp: %w", err)
	}
	if err := d.crashLocked(CrashPreRename); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, snapshotFile)); err != nil {
		return fmt.Errorf("store: commit snapshot: %w", err)
	}
	syncDir(d.dir)
	// The snapshot is committed from here on: state-tracking updates must
	// happen even if truncation fails, because replay trusts the rename.
	d.snapSeq = snap.WALSeq
	d.lastSnap = d.clock.Now()
	d.walCount = 0
	d.snapshotSeconds.Observe(d.lastSnap.Sub(started).Seconds())
	if err := d.crashLocked(CrashPostRename); err != nil {
		return err
	}
	if err := d.wal.Truncate(0); err != nil {
		// Safe to continue: replay skips records at or below snapSeq.
		d.logf("store: WAL truncate after snapshot: %v", err)
	}
	return nil
}

// Close takes a final snapshot (the graceful-shutdown flush) and releases
// the WAL handle. The store refuses all mutations afterwards.
func (d *DurableStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	if d.down == nil && d.walCount > 0 {
		//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
		first = d.compactLocked()
	}
	if err := d.wal.Close(); err != nil && first == nil {
		first = err
	}
	if d.down == nil {
		d.down = ErrClosed
	}
	return first
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename survives power loss. Best effort:
// some platforms refuse directory syncs, and the rename itself is already
// atomic with respect to process crashes.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
