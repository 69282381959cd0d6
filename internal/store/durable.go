// DurableStore persists the object store to disk: every mutation is
// appended to a CRC-framed write-ahead log before it is acknowledged, and
// the log is compacted into an atomic snapshot once it has grown, once it
// holds a retention sweep, and on Close. Opening a
// directory replays snapshot + WAL suffix back to byte-identical state —
// object bytes and creation timestamps included — so an autotuned restart
// keeps every trained model and every retention clock.
//
// Payloads stay in those two files, and so do creation times. The
// in-memory index holds, per object, its key and a locator of its payload's
// raw bytes in the WAL record or snapshot image that made it durable; a
// read preads them straight into the slice it returns and checks them
// against the locator's CRC32. The creation time is the 8 bytes right after
// the payload in every record that carries one, so the locator finds it
// too, and its CRC covers both: every reader of a creation time —
// compaction, Export, the retention sweep — reads it with the payload and
// checks the two together.
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
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
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
	// ErrCorrupt marks a payload whose bytes on disk no longer match the
	// CRC32 recorded when it was committed. The read fails; the store
	// never returns bytes other than those committed.
	ErrCorrupt = errors.New("store: object payload fails its checksum")
)

// DurableOptions parameterizes OpenDurable. The zero value is production
// defaults: real clock, fsync on every append, compaction every
// DefaultCompactEvery records.
type DurableOptions struct {
	// Clock drives creation timestamps and retention sweeps; nil means the
	// wall clock.
	Clock resilience.Clock
	// CompactEvery snapshots after this many WAL records; 0 means
	// DefaultCompactEvery. The store also snapshots once the WAL holds
	// more bytes than compactWALBytes and the live snapshot, and once it
	// holds a retention sweep (see maybeCompactLocked). Negative disables
	// all three, so tests can keep records in the WAL; Close still
	// compacts.
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
	// OnAppend observes every durably appended WAL record — the log-shipping
	// tap the fleet replicator hangs off. It is called under the store lock
	// immediately after the record is on disk; the frame slice (the whole
	// record) is only valid for the duration of the call, so the observer
	// must copy it and must not call back into the store. sc is
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

// compactWALBytes is the fewest WAL bytes that compact by size.
const compactWALBytes = 4 << 20

// DurableStore is an object store with snapshot + WAL persistence. It
// satisfies the backend's ObjectStore interface; reads are served from the
// data directory's files through the in-memory index, mutations are logged
// before they are applied. All methods are safe for concurrent use.
type DurableStore struct {
	signer
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

	compactEvery int
	noSync       bool

	walAppends      telemetry.Counter
	walReplayed     telemetry.Counter
	fsyncSeconds    telemetry.Histogram
	snapshotSeconds telemetry.Histogram

	// ix is the index: every live object's key and payload locator. A
	// mutation holds mu and then ix.mu; a reader holds ix.mu's read lock
	// from the lookup through the pread, so a compaction or
	// InstallSnapshot re-pointing entries under the write lock never races a
	// read of a truncated WAL or a replaced snapshot. ix.mu also guards
	// snap; mu alone excludes every index mutation, so a holder of mu may
	// walk the index without ix.mu.
	ix   index[loc]
	snap *os.File // read handle on the live snapshot; nil before the first

	mu       sync.Mutex
	wal      *os.File      // read-write, appending; readers pread it under ix.mu
	walSize  int64         // bytes in the WAL
	seq      atomic.Uint64 // last sequence number durably assigned; stored under mu, loaded anywhere
	snapSeq  uint64        // sequence number the on-disk snapshot covers
	walCount int           // records appended since the last snapshot
	snapSize int64         // bytes in the live snapshot
	// swept is set while the WAL holds a retention sweep: the bytes it
	// reaped stay in the WAL or the snapshot until the next compaction.
	swept   bool
	down    error  // non-nil once the store refuses mutations (crash/close)
	lineBuf []byte // reusable WAL record buffer (guarded by mu)
	spans   []int  // reusable span offsets of lineBuf's payloads (guarded by mu)
	locs    []loc  // reusable locators of one record's payloads (guarded by mu)
}

// loc locates one object on disk: its payload's raw bytes in the WAL or the
// snapshot image, and the object's creation time, 8 bytes little-endian,
// right after them (wal.go: str(data) created). It is the whole index
// entry, 16 bytes.
type loc struct {
	at  uint64 // the file in the top two bits (inWAL, inSnap), the payload's byte offset below
	n   uint32 // payload length in bytes
	crc uint32 // IEEE CRC32 of the payload and the creation time after it
}

// The files a locator can name.
const (
	inWAL    uint64 = 0
	inSnap   uint64 = 1 << 62
	fileMask        = 3 << 62
)

func (l loc) file() uint64 { return l.at & fileMask }
func (l loc) off() int64   { return int64(l.at &^ fileMask) }

// span is how many bytes a locator covers: the payload and the creation
// time after it.
func (l loc) span() int { return int(l.n) + 8 }

// locate returns the locator of data lying at offset off of file, followed
// there by its creation time.
func locate(file uint64, off int64, data []byte, created int64) loc {
	// The CRC runs on over the creation time's 8 little-endian bytes, a
	// byte at a time: handing them to crc32.Update would put them on the
	// heap, once per object applied.
	crc := ^crc32.ChecksumIEEE(data)
	for i := 0; i < 64; i += 8 {
		crc = crc32.IEEETable[byte(crc)^byte(created>>i)] ^ crc>>8
	}
	return loc{at: file | uint64(off), n: uint32(len(data)), crc: ^crc}
}

// checkLocated reports whether b, the span() bytes l locates, match its CRC.
func checkLocated(l loc, b []byte) bool { return crc32.ChecksumIEEE(b) == l.crc }

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
	d := &DurableStore{
		signer:       signer{secret: append([]byte(nil), secret...), now: clock.Now},
		dir:          dir,
		clock:        clock,
		logger:       opts.Logger,
		hooks:        opts.Hooks,
		onAppend:     opts.OnAppend,
		onDown:       opts.OnDown,
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
	// A leftover temp file is a snapshot or a rewritten legacy WAL that
	// never committed (pre-rename crash); the live file is authoritative.
	for _, tmp := range []string{snapshotTemp, walTemp} {
		if err := os.Remove(filepath.Join(dir, tmp)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("store: open durable: %w", err)
		}
	}
	if err := d.replay(); err != nil {
		d.closeFiles()
		return nil, err
	}
	return d, nil
}

// replay loads the snapshot, applies the WAL suffix, and truncates the log
// to its valid prefix so future appends extend a clean file. A file in the
// legacy JSON format is rewritten as binary records first.
func (d *DurableStore) replay() error {
	snapPath := filepath.Join(d.dir, snapshotFile)
	if image, err := os.ReadFile(snapPath); err == nil {
		if isLegacy(image) {
			if image, err = d.transcodeSnapshot(image); err != nil {
				return err
			}
		}
		es, walSeq, err := decodeImage(image)
		if err != nil {
			return err
		}
		f, err := os.Open(snapPath)
		if err != nil {
			return fmt.Errorf("store: open snapshot: %w", err)
		}
		d.resetLocked(es, f)
		d.seq.Store(walSeq)
		d.snapSeq, d.snapSize = walSeq, int64(len(image))
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: read snapshot: %w", err)
	}

	walPath := filepath.Join(d.dir, walFile)
	image, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: read WAL: %w", err)
	}
	if isLegacy(image) {
		if image, err = d.transcodeWAL(image, d.snapSeq); err != nil {
			return err
		}
	}
	// A sweep the snapshot already covers counts too: a crash between a
	// compaction's rename and its WAL truncation leaves the reaped bytes in
	// the WAL's stale records.
	lines, lastSeq, validLen, err := scanWAL(image, d.snapSeq, func(b []byte, spans []int) (walRecord, int, []int, error) {
		rec, n, sp, err := decodeRecord(b, spans)
		d.swept = d.swept || (err == nil && rec.Op == opSweep)
		return rec, n, sp, err
	})
	if err != nil {
		return err
	}
	for _, l := range lines {
		d.applyLocked(l.rec, d.locsLocked(l.rec, l.off, l.spans))
	}
	d.seq.Store(lastSeq)
	d.walCount = len(lines)
	d.walReplayed.Add(float64(len(lines)))

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open WAL: %w", err)
	}
	d.wal = f
	if int64(len(image)) > validLen {
		if err := f.Truncate(validLen); err != nil {
			return fmt.Errorf("store: truncate torn WAL tail: %w", err)
		}
		d.logf("store: recovery dropped %d invalid WAL byte(s) after offset %d", int64(len(image))-validLen, validLen)
	}
	d.walSize = validLen
	return nil
}

// closeFiles releases the WAL and snapshot handles; reads fail afterwards.
func (d *DurableStore) closeFiles() error {
	d.ix.mu.Lock()
	defer d.ix.mu.Unlock()
	var err error
	if d.wal != nil {
		err = d.wal.Close()
	}
	if d.snap != nil {
		d.snap.Close()
		d.snap = nil
	}
	return err
}

func (d *DurableStore) logf(format string, args ...any) {
	if d.logger != nil {
		d.logger.Printf(format, args...)
	}
}

// Err reports why the store refuses mutations: nil while healthy,
// ErrCrashed (wrapped with the cause) after a durability failure,
// ErrClosed after Close. Reads keep working until Close.
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

// maxKeptLineBuf is the largest WAL record buffer kept between appends.
// The reuse exists for the common ≈ 200-byte single-event record; a batch
// or model record is let go after its write, or one large commit would pin
// its buffer for the store's life (a 512-run batch record: ≈ 0.1 MB).
const maxKeptLineBuf = 4 << 10

// appendLocked writes one record to the WAL and returns the offset it
// starts at; d.spans then holds its payloads' offsets within the record.
// On success the record is durable and the sequence counter advances; on
// any failure the store goes down, because a half-written log must not
// accept further appends. sc is the causing request's trace identity (zero
// for untraced work): it parents the wal_append/wal_fsync spans and rides
// the OnAppend tap so log shipping stays inside the same causal tree.
func (d *DurableStore) appendLocked(rec walRecord, sc telemetry.SpanContext) (int64, error) {
	// Encode into the store-owned buffer (mu is held): after warmup the
	// append path allocates nothing for framing.
	d.lineBuf, d.spans = appendWALRecord(d.lineBuf[:0], rec, d.spans[:0])
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
		return 0, err
	}
	if d.hooks != nil {
		if herr := d.hooks(CrashMidRecord); herr != nil {
			// Simulate the torn write: half the frame reaches the disk
			// before the process dies.
			if _, werr := d.wal.Write(line[:len(line)/2]); werr == nil {
				d.wal.Sync()
			}
			status = "error"
			return 0, d.latchLocked(fmt.Errorf("%w: injected crash at %s: %v", ErrCrashed, CrashMidRecord, herr))
		}
	}
	if _, err := d.wal.Write(line); err != nil {
		status = "error"
		return 0, d.latchLocked(fmt.Errorf("%w: WAL append: %v", ErrCrashed, err))
	}
	if !d.noSync {
		fsp := d.tracer.StartRemote(sp.Context(), "wal_fsync", "store")
		start := d.clock.Now()
		if err := d.wal.Sync(); err != nil {
			fsp.Finish("error")
			status = "error"
			return 0, d.latchLocked(fmt.Errorf("%w: WAL sync: %v", ErrCrashed, err))
		}
		d.fsyncSeconds.Observe(d.clock.Now().Sub(start).Seconds())
		fsp.Finish("ok")
	}
	base := d.walSize
	d.walSize += int64(len(line))
	d.seq.Store(rec.Seq)
	d.walCount++
	d.walAppends.Inc()
	if d.onAppend != nil {
		d.onAppend(rec.Seq, line, sc)
	}
	return base, nil
}

// commitLocked is the one mutation path: refuse when down, log the record,
// apply it with the function replay and follower-apply use, then compact if
// the log has grown. Callers hold d.mu and leave rec.Seq unset.
func (d *DurableStore) commitLocked(rec walRecord, sc telemetry.SpanContext) error {
	if d.down != nil {
		return d.down
	}
	rec.Seq = d.seq.Load() + 1
	base, err := d.appendLocked(rec, sc)
	if err != nil {
		return err
	}
	d.applyLocked(rec, d.locsLocked(rec, base, d.spans))
	d.maybeCompactLocked()
	return nil
}

// locsLocked returns the locators of the payloads of rec, which lies in the
// WAL at offset base with its payloads at spans from there.
func (d *DurableStore) locsLocked(rec walRecord, base int64, spans []int) []loc {
	d.locs = d.locs[:0]
	for i, off := range spans {
		data, created := recordPayload(rec, i)
		d.locs = append(d.locs, locate(inWAL, base+int64(off), data, created))
	}
	return d.locs
}

// applyLocked applies one WAL record to the index — the shared
// interpretation used by commit, recovery replay and follower apply. locs
// locates its payloads: one for a put, one per entry for a batch.
func (d *DurableStore) applyLocked(rec walRecord, locs []loc) {
	d.ix.mu.Lock()
	defer d.ix.mu.Unlock()
	switch rec.Op {
	case opPut:
		d.ix.putLocked(rec.Path, locs[0])
	case opDel:
		d.ix.removeLocked(rec.Path)
	case opSweep:
		d.ix.removeLocked(rec.Paths...)
		d.swept = true
	case opBatch:
		for i, e := range rec.Entries {
			d.ix.putLocked(e.Path, locs[i])
		}
	}
}

// resetLocked replaces the whole index with es and makes f the live
// snapshot. Callers hold d.mu.
func (d *DurableStore) resetLocked(es []slot[loc], f *os.File) {
	d.ix.mu.Lock()
	old := d.snap
	d.ix.resetLocked(es)
	d.snap = f
	d.ix.mu.Unlock()
	if old != nil {
		old.Close()
	}
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

// Get reads an object after verifying the read token.
func (d *DurableStore) Get(tok, p string) ([]byte, error) {
	if err := d.Verify(tok, p, PermRead); err != nil {
		return nil, err
	}
	return d.GetInternal(p)
}

// PutInternal is a one-entry Commit for callers with no error slot: a
// durability failure is logged and latched, so Err reports it and every
// later mutation fails fast rather than silently diverging from the log.
func (d *DurableStore) PutInternal(p string, data []byte) {
	if err := d.Commit(context.Background(), []Entry{{Path: p, Data: data}}); err != nil {
		d.logf("store: durable PutInternal %s: %v", p, err)
	}
}

// GetInternal reads without a token: one pread of the payload, and the
// creation time after it, into the slice it returns, checked against their
// CRC. A payload damaged on disk is ErrCorrupt, never other bytes.
func (d *DurableStore) GetInternal(p string) ([]byte, error) {
	d.ix.mu.RLock()
	defer d.ix.mu.RUnlock()
	l := d.ix.findLocked(p)
	if l == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	if l.n == 0 {
		return nil, nil
	}
	b, err := d.readLocked(p, *l)
	if err != nil {
		return nil, err
	}
	return b[:l.n:l.n], nil
}

// readLocked returns a fresh copy of the span l locates, stored under key:
// the payload and the creation time after it, checked against their CRC.
// Callers hold d.ix.mu, or d.mu.
func (d *DurableStore) readLocked(key string, l loc) ([]byte, error) {
	f := d.fileLocked(l.at)
	if f == nil {
		return nil, fmt.Errorf("store: read %s: %w", key, ErrClosed)
	}
	b := make([]byte, l.span())
	if _, err := f.ReadAt(b, l.off()); err != nil {
		return nil, fmt.Errorf("store: read %s: %w", key, err)
	}
	if !checkLocated(l, b) {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, key)
	}
	return b, nil
}

// fileLocked returns the file a locator's at names. Callers hold d.ix.mu,
// or d.mu.
func (d *DurableStore) fileLocked(at uint64) *os.File {
	if at&fileMask == inSnap {
		return d.snap
	}
	return d.wal
}

// extent is n bytes of one of the store's files: at names the file and the
// offset as a locator's at does. ord is the caller's, to tell extents apart
// once they are sorted.
type extent struct {
	at  uint64
	n   int
	ord int
}

// readExtentsLocked reads every extent and calls fn on its bytes, which are
// valid only for the call. It sorts xs and reads the files in offset order,
// coalescing extents that lie close together into one pread: it reads
// through gaps of up to a page, and at most 1 MiB at a time unless one
// extent is longer. Callers hold d.mu.
func (d *DurableStore) readExtentsLocked(xs []extent, fn func(x extent, b []byte) error) error {
	const maxGap, maxRead = 4 << 10, 1 << 20
	slices.SortFunc(xs, func(a, b extent) int { return cmp.Compare(a.at, b.at) })
	var block []byte
	for i := 0; i < len(xs); {
		start, end := xs[i].at, xs[i].at+uint64(xs[i].n)
		j := i + 1
		for ; j < len(xs) && xs[j].at&fileMask == start&fileMask; j++ {
			if xs[j].at > end+maxGap || xs[j].at+uint64(xs[j].n)-start > maxRead {
				break
			}
			end = max(end, xs[j].at+uint64(xs[j].n))
		}
		f := d.fileLocked(start)
		if f == nil {
			return ErrClosed
		}
		block = slices.Grow(block[:0], int(end-start))[:end-start]
		if _, err := f.ReadAt(block, int64(start&^fileMask)); err != nil {
			return err
		}
		for _, x := range xs[i:j] {
			if err := fn(x, block[x.at-start:][:x.n]); err != nil {
				return err
			}
		}
		i = j
	}
	return nil
}

// PutBatch is Commit without a context.
func (d *DurableStore) PutBatch(entries []BatchEntry) error {
	return d.Commit(context.Background(), entries)
}

// List returns the paths under prefix, sorted.
func (d *DurableStore) List(prefix string) []string { return d.ix.list(prefix) }

// Len returns the number of stored objects.
func (d *DurableStore) Len() int { return d.ix.len() }

// Delete removes an object; deleting a missing object is logged as a
// mutation all the same, keeping replay a pure function of the log.
func (d *DurableStore) Delete(p string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
	return d.commitLocked(walRecord{Op: opDel, Path: p}, telemetry.SpanContext{})
}

// CleanupOlderThan runs the retention sweep over expired event files and
// the signature index entries committed beside them, and returns how many
// event files were reaped. The whole batch is one WAL record — one append +
// fsync no matter how many objects expired, so a large sweep does not stall
// commits behind a per-file fsync loop — logged before any removal is
// applied, so the sweep is all-or-nothing across a crash.
//
// Creation times are not in the index: the sweep preads each swept object
// with its creation time, coalesced in offset order as compaction reads
// them, and checks both against the locator's CRC before it judges any
// object. A damaged span reaps nothing.
func (d *DurableStore) CleanupOlderThan(retention time.Duration) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	// d.mu excludes every index mutation, so the two walks see the same
	// entries in the same order.
	var (
		xs   []extent
		locs []loc
	)
	d.ix.sweptLocked(func(_ []byte, l *loc) {
		xs = append(xs, extent{at: l.at, n: l.span(), ord: len(xs)})
		locs = append(locs, *l)
	})
	created := make([]int64, len(xs))
	if err := d.readExtentsLocked(xs, func(x extent, b []byte) error {
		l := locs[x.ord]
		if !checkLocated(l, b) {
			return fmt.Errorf("%w: object at byte %d", ErrCorrupt, l.off())
		}
		created[x.ord] = int64(binary.LittleEndian.Uint64(b[l.n:]))
		return nil
	}); err != nil {
		d.logf("store: retention sweep: read creation times: %v", err)
		return 0
	}
	next := 0
	reaped, events := d.ix.expiredLocked(d.clock.Now().Add(-retention).UnixNano(), func(*loc) int64 {
		next++
		return created[next-1]
	})
	if len(reaped) == 0 {
		return 0
	}
	//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
	if err := d.commitLocked(walRecord{Op: opSweep, Paths: reaped}, telemetry.SpanContext{}); err != nil {
		d.logf("store: retention sweep of %d object(s) not logged: %v", len(reaped), err)
		return 0
	}
	return events
}

// maybeCompactLocked compacts when the WAL holds a retention sweep, or has
// grown past the record-count threshold, or past both compactWALBytes and
// the live snapshot's size. A sweep compacts at once, so the bytes it
// reaped leave the disk in the same operation, on the owner and on every
// follower that applies its record. A group commit folds many objects into
// one record, so a record count alone does not bound the log, nor the
// replay a restart pays for it; the size rule does, and rewrites the
// snapshot at most once per its own size in logged bytes.
func (d *DurableStore) maybeCompactLocked() {
	if d.compactEvery <= 0 || (!d.swept && d.walCount < d.compactEvery && d.walSize < max(compactWALBytes, d.snapSize)) {
		return
	}
	if err := d.compactLocked(); err != nil {
		d.logf("store: compaction failed (WAL keeps growing): %v", err)
	}
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
// write-temp + rename, re-points the index at it, then resets the WAL. A
// crash before the rename leaves the old snapshot + full WAL authoritative;
// a crash after it leaves stale WAL records that replay skips by sequence
// number — both recover to the identical state.
func (d *DurableStore) compactLocked() error {
	started := d.clock.Now()
	seq := d.seq.Load()
	image, locs, err := d.imageLocked(seq)
	if err != nil {
		return err
	}
	f, err := d.replaceLocked(snapshotTemp, snapshotFile, image)
	if err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	// The snapshot is committed from here on: state-tracking updates must
	// happen even if truncation fails, because replay trusts the rename.
	d.snapSeq, d.snapSize = seq, int64(len(image))
	d.walCount, d.swept = 0, false
	d.snapshotSeconds.Observe(d.clock.Now().Sub(started).Seconds())
	d.repointLocked(f, locs)
	if err := d.crashLocked(CrashPostRename); err != nil {
		return err
	}
	d.truncateWALLocked()
	return nil
}

// imageLocked renders the whole store as a snapshot image covering walSeq
// and returns it with the locators of every payload in it, in index order.
// Each payload and the creation time after it are copied out of the file
// that holds them in one span — the files read in offset order, coalescing
// nearby spans into one pread — and the span is checked against its CRC on
// the way, so a damaged payload or creation time fails the image instead of
// being sealed into a fresh snapshot under a valid checksum. Callers hold d.mu.
func (d *DurableStore) imageLocked(walSeq uint64) ([]byte, []loc, error) {
	n := d.ix.lenLocked()
	locs := make([]loc, 0, n)
	heads := make([]int, 0, n) // where each entry's record starts in the image
	xs := make([]extent, 0, n)
	image, _ := appendWALRecord(nil, walRecord{Seq: walSeq, Op: opHead, Count: uint64(n)}, nil)
	d.ix.eachLocked(func(key []byte, l *loc) {
		heads = append(heads, len(image))
		var at int
		// The creation time is written with the payload, below.
		image, at = appendPut(image, 0, key, int(l.n), 0)
		xs = append(xs, extent{at: l.at, n: l.span(), ord: len(locs)})
		locs = append(locs, loc{at: inSnap | uint64(at), n: l.n, crc: l.crc})
	})
	err := d.readExtentsLocked(xs, func(x extent, b []byte) error {
		dst := locs[x.ord]
		if !checkLocated(dst, b) {
			return fmt.Errorf("%w: %s", ErrCorrupt, d.ix.keyAtLocked(x.ord))
		}
		copy(image[dst.off():], b)
		sealRecord(image, heads[x.ord])
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("store: read payloads for snapshot: %w", err)
	}
	return image, locs, nil
}

// repointLocked makes f the live snapshot and points every index entry, in
// order, at locs: its payload in f.
func (d *DurableStore) repointLocked(f *os.File, locs []loc) {
	d.ix.mu.Lock()
	old := d.snap
	d.snap = f
	i := 0
	d.ix.eachLocked(func(_ []byte, l *loc) {
		*l = locs[i]
		i++
	})
	d.ix.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// truncateWALLocked empties the WAL once the live snapshot covers it and no
// index entry points into it.
func (d *DurableStore) truncateWALLocked() {
	if err := d.wal.Truncate(0); err != nil {
		// Safe to continue: replay skips records at or below snapSeq.
		d.logf("store: WAL truncate after snapshot: %v", err)
		return
	}
	d.walSize = 0
}

// Close takes a final snapshot (the graceful-shutdown flush) and releases
// the WAL and snapshot handles. The store refuses all mutations afterwards,
// and reads fail.
func (d *DurableStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	if d.down == nil && (d.walCount > 0 || d.swept) {
		//rocklint:allow deadlockcycle -- fsync-before-ack under d.mu IS the §7 WAL serialization point: the ack may not outrun the disk, so the write path blocks by design
		first = d.compactLocked()
	}
	if err := d.closeFiles(); err != nil && first == nil {
		first = err
	}
	if d.down == nil {
		d.down = ErrClosed
	}
	return first
}

// replaceLocked writes image to tmp in the store's directory, fsyncs it,
// passes the CrashPreRename point, renames it over name and syncs the
// directory. The file comes back open for reading: the live snapshot's
// handle, when name is the snapshot.
func (d *DurableStore) replaceLocked(tmp, name string, image []byte) (*os.File, error) {
	path := filepath.Join(d.dir, tmp)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(image); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = d.crashLocked(CrashPreRename)
	}
	if err == nil {
		err = os.Rename(path, filepath.Join(d.dir, name))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	syncDir(d.dir)
	return f, nil
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
