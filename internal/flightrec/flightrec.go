// Package flightrec is the fleet's black-box flight recorder: a bounded
// in-memory ring of leveled, trace-correlated structured events that every
// daemon keeps regardless of log configuration, and that snapshots itself
// to the data directory the moment something goes wrong — an SLO breach, a
// latched durable-store failure, a failover promotion. The ring answers
// "what was this node doing in the seconds before it broke" after the
// fact, the way a crashed aircraft's recorder does: nobody was watching,
// but the evidence is on disk.
//
// The recorder never reads the wall clock or ambient randomness — time is
// injected — and a nil *Recorder discards everything, so instrumentation
// call sites never branch on whether a recorder is configured.
package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// Level grades an event's severity.
type Level string

// The recorder's severity scale, lowest to highest.
const (
	LevelDebug Level = "debug"
	LevelInfo  Level = "info"
	LevelWarn  Level = "warn"
	LevelError Level = "error"
)

// Event is one recorded occurrence.
type Event struct {
	// Seq orders events totally even when the injected clock is frozen
	// (fake clocks stamp many events with one instant).
	Seq      uint64 `json:"seq"`
	UnixNano int64  `json:"unix_nano"`
	Level    Level  `json:"level"`
	// Component names the subsystem that recorded the event (backend,
	// store, fleet, updater).
	Component string `json:"component"`
	// TraceID/SpanID correlate the event with the causal trace it happened
	// under, when it happened under one.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	Message string `json:"message"`
}

// Snapshot is the on-disk dump format: the ring's contents at the moment a
// trigger fired, oldest event first.
type Snapshot struct {
	Node      string  `json:"node"`
	Reason    string  `json:"reason"`
	WrittenAt int64   `json:"written_unix_nano"`
	Events    []Event `json:"events"`
}

// Recorder is the bounded event ring. All methods are safe for concurrent
// use and safe on a nil receiver.
type Recorder struct {
	node string
	dir  string
	now  func() time.Time

	ring *telemetry.Ring[Event]

	// mu makes "assign Seq, then record" one step, so ring order is Seq order.
	mu      sync.Mutex
	seq     uint64
	dumpSeq int
	dumped  map[string]bool
	onDump  func(reason, path string)
}

// New builds a recorder retaining the last n events for a node. dir is
// where Dump writes snapshots (empty disables dumping while keeping the
// live ring). n <= 0 or a nil clock yields a nil, discarding recorder.
func New(n int, node, dir string, now func() time.Time) *Recorder {
	if n <= 0 || now == nil {
		return nil
	}
	return &Recorder{
		node:   node,
		dir:    dir,
		now:    now,
		ring:   telemetry.NewRing[Event](n),
		dumped: make(map[string]bool),
	}
}

// OnDump installs a callback invoked after each successful Dump — daemons
// log the snapshot path so operators find the black box.
func (r *Recorder) OnDump(fn func(reason, path string)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onDump = fn
	r.mu.Unlock()
}

// Eventf records one event. sc correlates it with a causal trace; pass the
// zero SpanContext for untraced work.
func (r *Recorder) Eventf(level Level, component string, sc telemetry.SpanContext, format string, args ...any) {
	if r == nil {
		return
	}
	ev := Event{
		UnixNano:  r.now().UnixNano(),
		Level:     level,
		Component: component,
		Message:   fmt.Sprintf(format, args...),
	}
	if sc.Valid() {
		ev.TraceID = sc.TraceHex()
		ev.SpanID = sc.SpanHex()
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.ring.Record(ev)
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.ring.Snapshot()
}

// Dump snapshots the ring to the data directory, named by reason and a
// monotone sequence number (never the wall clock — dump names must be
// deterministic under a fake clock). Each reason dumps at most once per
// process: the first breach is the evidence; re-dumping on every
// subsequent request would churn disk while the node is already degraded.
// It returns the written path, or "" with a nil error when dumping is
// disabled or the reason already dumped.
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	if r.dir == "" || r.dumped[reason] {
		r.mu.Unlock()
		return "", nil
	}
	r.dumped[reason] = true
	r.dumpSeq++
	snap := Snapshot{
		Node:      r.node,
		Reason:    reason,
		WrittenAt: r.now().UnixNano(),
		Events:    r.ring.Snapshot(),
	}
	path := filepath.Join(r.dir, fmt.Sprintf("flightrec-%s-%03d.json", reason, r.dumpSeq))
	fn := r.onDump
	r.mu.Unlock()

	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", fmt.Errorf("flightrec: encode snapshot: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return "", fmt.Errorf("flightrec: write snapshot: %w", err)
	}
	if fn != nil {
		fn(reason, path)
	}
	return path, nil
}

// Load reads a snapshot written by Dump.
func Load(path string) (Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("flightrec: read snapshot: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(blob, &s); err != nil {
		return Snapshot{}, fmt.Errorf("flightrec: decode %s: %w", path, err)
	}
	return s, nil
}

// Render replays a snapshot as a readable event timeline, oldest first —
// the rockmon -flightrec output.
func Render(w io.Writer, s Snapshot) {
	fmt.Fprintf(w, "flight recorder: node=%s reason=%s events=%d\n", s.Node, s.Reason, len(s.Events))
	evs := append([]Event(nil), s.Events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	var origin int64
	if len(evs) > 0 {
		origin = evs[0].UnixNano
	}
	for _, ev := range evs {
		offset := float64(ev.UnixNano-origin) / float64(time.Second)
		trace := ""
		if ev.TraceID != "" {
			trace = " trace=" + ev.TraceID
		}
		fmt.Fprintf(w, "%10.3fs %-5s %-8s%s %s\n", offset, ev.Level, ev.Component, trace, ev.Message)
	}
}
