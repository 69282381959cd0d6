package telemetry

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// TraceHeader is the HTTP header carrying the trace identity, formatted as
// "<trace_id>-<span_id>" (two 16-digit lowercase hex words). The client mints
// it, the backend middleware honors it, and both attach it to their
// structured log lines so one request can be followed across processes.
const TraceHeader = "X-Rockhopper-Trace"

// SpanContext is a trace/span identity. The zero value means "untraced".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// String renders the header wire form, "<trace_id>-<span_id>".
func (sc SpanContext) String() string {
	return sc.TraceHex() + "-" + sc.SpanHex()
}

// TraceHex renders the trace half of the identity as 16 lowercase hex digits.
func (sc SpanContext) TraceHex() string { return fmt.Sprintf("%016x", sc.TraceID) }

// SpanHex renders the span half of the identity as 16 lowercase hex digits.
func (sc SpanContext) SpanHex() string { return fmt.Sprintf("%016x", sc.SpanID) }

// ParseTraceHeader decodes the wire form. It returns ok=false (never an
// error) on malformed input: a bad header from an old client must degrade to
// "untraced", not fail the request.
func ParseTraceHeader(s string) (SpanContext, bool) {
	t, sp, found := strings.Cut(strings.TrimSpace(s), "-")
	if !found || len(t) != 16 || len(sp) != 16 {
		return SpanContext{}, false
	}
	var sc SpanContext
	if _, err := fmt.Sscanf(t, "%016x", &sc.TraceID); err != nil {
		return SpanContext{}, false
	}
	if _, err := fmt.Sscanf(sp, "%016x", &sc.SpanID); err != nil {
		return SpanContext{}, false
	}
	return sc, sc.Valid()
}

// IDSource is any deterministic random stream (stats.RNG satisfies it).
// Trace identity is minted from injected randomness so tracing never
// introduces ambient nondeterminism into experiment paths.
type IDSource interface{ Uint64() uint64 }

// Mint creates a fresh root span identity from src. IDs are forced nonzero
// so a minted context is always Valid.
func Mint(src IDSource) SpanContext {
	return SpanContext{TraceID: nonzero(src), SpanID: nonzero(src)}
}

// Child derives a new span under sc's trace. Minting a child of an invalid
// context mints a root instead.
func (sc SpanContext) Child(src IDSource) SpanContext {
	if !sc.Valid() {
		return Mint(src)
	}
	return SpanContext{TraceID: sc.TraceID, SpanID: nonzero(src)}
}

func nonzero(src IDSource) uint64 {
	for {
		if v := src.Uint64(); v != 0 {
			return v
		}
	}
}

type spanCtxKey struct{}

// WithSpan returns a context carrying sc.
func WithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFrom extracts the span identity from ctx (zero value if untraced).
func SpanFrom(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// Span is one finished unit of work recorded in a SpanRing. Timestamps come
// from the recorder's injected clock; the ring itself never reads time.
//
// ParentID links the span into its trace's causal tree: empty means a root
// (the client send), otherwise it names the span that caused this one — on
// the same node via context carriage, or on another node via the span half
// of the X-Rockhopper-Trace header (the propagation contract: the header's
// span ID IS the parent of every span the receiver mints for that request).
type Span struct {
	TraceID    string  `json:"trace_id"`
	SpanID     string  `json:"span_id"`
	ParentID   string  `json:"parent_id,omitempty"`
	Name       string  `json:"name"`
	Kind       string  `json:"kind,omitempty"`
	Node       string  `json:"node,omitempty"`
	StartUnix  int64   `json:"start_unix_nano"`
	DurationMS float64 `json:"duration_ms"`
	Status     string  `json:"status"`
	// Annotations are bounded free-text notes (seq numbers, byte counts,
	// peer IDs) — never metric labels, so cardinality rules don't apply.
	Annotations []string `json:"annotations,omitempty"`
}

// Ring is a bounded in-memory buffer of the last n records. A nil ring
// discards records, so capture is optional at every call site. All methods
// are safe for concurrent use.
type Ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	next    int
	full    bool
	onEvict func()
}

// NewRing returns a ring retaining the last n records (n <= 0 yields the
// discarding nil ring).
func NewRing[T any](n int) *Ring[T] {
	if n <= 0 {
		return nil
	}
	return &Ring[T]{buf: make([]T, n)}
}

// OnEvict installs a callback invoked once per record overwritten — the
// hook behind rockhopper_trace_spans_evicted_total, so silent span loss at
// fleet load is visible on a scrape. Install before the ring sees traffic;
// the callback runs outside the ring lock.
func (r *Ring[T]) OnEvict(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onEvict = fn
	r.mu.Unlock()
}

// Record appends one record, evicting the oldest when full.
func (r *Ring[T]) Record(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	evicted := r.full
	fn := r.onEvict
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.mu.Unlock()
	if evicted && fn != nil {
		fn()
	}
}

// Snapshot returns the retained records, oldest first.
func (r *Ring[T]) Snapshot() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// SpanRing is the ring of recently finished spans served at /api/trace for
// correlation without external infrastructure.
type SpanRing = Ring[Span]

// NewSpanRing returns a ring retaining the last n spans.
func NewSpanRing(n int) *SpanRing { return NewRing[Span](n) }
