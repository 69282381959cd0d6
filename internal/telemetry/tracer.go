package telemetry

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// maxAnnotations bounds the free-text notes one span may carry, so a hot
// loop annotating a long-lived span cannot grow memory without bound.
const maxAnnotations = 8

// Tracer mints child spans and records the finished results into a ring.
// It is the one component that joins the three ingredients tracing needs —
// a span buffer, a clock, and an ID stream — all injected, so tracing adds
// no ambient nondeterminism: the clock is the owner's (fake in tests) and
// the IDs come from a dedicated RNG split, never from the experiment or
// jitter streams whose draw sequences determinism tests pin.
//
// A nil *Tracer is valid everywhere and records nothing, so span capture
// stays optional at every call site, mirroring the nil-SpanRing contract.
type Tracer struct {
	ring *SpanRing
	node string
	now  func() time.Time

	mu  sync.Mutex
	ids IDSource
}

// NewTracer builds a tracer recording into ring (nil discards), stamping
// each span with the owning node's ID, reading time from now, and minting
// span IDs from ids. A nil now or ids yields a nil tracer: a tracer that
// cannot time or name spans is indistinguishable from one that is off.
func NewTracer(ring *SpanRing, node string, now func() time.Time, ids IDSource) *Tracer {
	if now == nil || ids == nil {
		return nil
	}
	return &Tracer{ring: ring, node: node, now: now, ids: ids}
}

func (t *Tracer) child(parent SpanContext) SpanContext {
	t.mu.Lock()
	defer t.mu.Unlock()
	return parent.Child(t.ids)
}

func (t *Tracer) mint() SpanContext {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Mint(t.ids)
}

// Start opens a child span of the context's span identity. An untraced
// context returns (ctx, nil): the tracer honors trace identity on request
// paths, it never invents it — untraced traffic stays untraced, and the
// nil ActiveSpan makes every downstream Annotate/Finish a no-op.
func (t *Tracer) Start(ctx context.Context, name, kind string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	parent := SpanFrom(ctx)
	if !parent.Valid() {
		return ctx, nil
	}
	sp := t.open(t.child(parent), parent.SpanID, name, kind)
	return WithSpan(ctx, sp.sc), sp
}

// StartRoot opens a fresh root span — a deliberate trace origin (promotion
// replay, background sweeps) rather than a propagated one.
func (t *Tracer) StartRoot(ctx context.Context, name, kind string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	sp := t.open(t.mint(), 0, name, kind)
	return WithSpan(ctx, sp.sc), sp
}

// StartRemote opens a server-side child of an identity received off the
// wire: the span gets a fresh ID under the inbound trace, and the inbound
// span ID becomes its parent — the cross-node half of the propagation
// contract. An invalid inbound identity returns nil.
func (t *Tracer) StartRemote(inbound SpanContext, name, kind string) *ActiveSpan {
	if t == nil || !inbound.Valid() {
		return nil
	}
	return t.open(t.child(inbound), inbound.SpanID, name, kind)
}

// Adopt opens a span whose identity was minted elsewhere — the client mints
// its root from the call's own jitter stream so enabling tracing never
// shifts the retry-jitter draw sequence — and records it under this tracer's
// ring and clock. parent is 0 for a root.
func (t *Tracer) Adopt(sc SpanContext, parent uint64, name, kind string) *ActiveSpan {
	if t == nil || !sc.Valid() {
		return nil
	}
	return t.open(sc, parent, name, kind)
}

func (t *Tracer) open(sc SpanContext, parent uint64, name, kind string) *ActiveSpan {
	return &ActiveSpan{t: t, sc: sc, parent: parent, name: name, kind: kind, start: t.now()}
}

// ActiveSpan is one in-flight unit of work. Finish records it into the
// tracer's ring exactly once; every method is nil-safe so call sites never
// branch on whether tracing is on.
type ActiveSpan struct {
	t      *Tracer
	sc     SpanContext
	parent uint64
	name   string
	kind   string
	start  time.Time

	mu     sync.Mutex
	status string
	notes  []string
	done   bool
}

// Context returns the span's identity (zero for a nil span) — what a caller
// puts on the wire so remote work parents under this span.
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Annotate attaches one bounded free-text note to the span.
func (s *ActiveSpan) Annotate(format string, args ...any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done || len(s.notes) >= maxAnnotations {
		return
	}
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

// Finish closes the span with the given status and records it. Idempotent:
// only the first call records, so "defer sp.Finish(...)" backstopping an
// explicit success-path Finish is safe.
func (s *ActiveSpan) Finish(status string) {
	if s == nil {
		return
	}
	end := s.t.now()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.status = status
	notes := s.notes
	s.mu.Unlock()
	span := Span{
		TraceID:     s.sc.TraceHex(),
		SpanID:      s.sc.SpanHex(),
		Name:        s.name,
		Kind:        s.kind,
		Node:        s.t.node,
		StartUnix:   s.start.UnixNano(),
		DurationMS:  float64(end.Sub(s.start)) / float64(time.Millisecond),
		Status:      status,
		Annotations: notes,
	}
	if s.parent != 0 {
		span.ParentID = SpanContext{SpanID: s.parent}.SpanHex()
	}
	s.t.ring.Record(span)
}
