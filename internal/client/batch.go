package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

// PostEventBatch ships traces spanning many query signatures in one call to
// POST /api/events/batch — each trace's query_id names its signature, and
// the backend commits the whole batch as a single store group commit. This
// is the amortized path for chatty listeners: one round trip and one fsync
// per flush instead of one per signature.
func (c *Client) PostEventBatch(ctx context.Context, user, jobID string, traces []flighting.Trace) (backend.BatchResponse, error) {
	if len(traces) == 0 {
		return backend.BatchResponse{}, nil
	}
	for i, tr := range traces {
		if tr.QueryID == "" {
			return backend.BatchResponse{}, fmt.Errorf("client: batch trace %d has no QueryID (the signature key)", i)
		}
	}
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, traces); err != nil {
		return backend.BatchResponse{}, err
	}
	return c.postIngest(ctx, "post_events_batch", "post event batch", jobID,
		fmt.Sprintf("/api/events/batch?user=%s&job_id=%s", user, jobID), buf.Bytes())
}

// Batcher default thresholds.
const (
	DefaultBatchMaxEvents     = 64
	DefaultBatchFlushInterval = 5 * time.Second
	// MinBatchFlushEvents floors the adaptive flush target: shedding can
	// shrink batches down to single-trace requests but never stop them.
	MinBatchFlushEvents = 1
)

// Batcher buffers traces client-side and flushes them through
// PostEventBatch when the buffer reaches the flush target or FlushInterval
// elapses — the query listener's answer to "don't fsync per query". It is
// safe for concurrent Add.
//
// The flush target is adaptive (AIMD): it starts at MaxEvents and reacts
// to backend shedding. A flush the backend rejects with 429 + Retry-After
// halves the target — multiplicative decrease sheds load as fast as the
// backend signals distress — and each accepted flush adds one back up to
// MaxEvents, probing for recovered capacity gently enough not to
// re-trigger the shed. Flush ships the buffer in target-sized requests, so
// the halved size applies to in-flight work too, not just the trigger.
type Batcher struct {
	client *Client
	user   string
	jobID  string

	// MaxEvents is the flush-target ceiling; <= 0 means
	// DefaultBatchMaxEvents.
	MaxEvents int
	// FlushInterval is the background flush cadence; <= 0 means
	// DefaultBatchFlushInterval.
	FlushInterval time.Duration
	// OnError observes failed background flushes (the failed traces are
	// re-buffered); nil logs through the client's Logger.
	OnError func(error)

	mu     sync.Mutex
	buf    []flighting.Trace
	target int // adaptive flush threshold; 0 until first use

	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
}

// NewBatcher returns a Batcher shipping to user/jobID through c. Start the
// background interval flusher with Start; without it the Batcher still
// flushes on size and on Close.
func (c *Client) NewBatcher(user, jobID string) *Batcher {
	return &Batcher{client: c, user: user, jobID: jobID}
}

// Start launches the interval flusher, bounded by ctx and by Close.
func (b *Batcher) Start(ctx context.Context) {
	b.once.Do(func() {
		ctx, cancel := context.WithCancel(ctx)
		b.cancel = cancel
		b.wg.Add(1)
		go b.loop(ctx)
	})
}

func (b *Batcher) loop(ctx context.Context) {
	defer b.wg.Done()
	interval := b.FlushInterval
	if interval <= 0 {
		interval = DefaultBatchFlushInterval
	}
	for {
		if err := b.client.clock().Sleep(ctx, interval); err != nil {
			return // Close cancelled the context
		}
		b.flush(ctx)
	}
}

// ceiling is the configured flush-target upper bound.
func (b *Batcher) ceiling() int {
	if b.MaxEvents > 0 {
		return b.MaxEvents
	}
	return DefaultBatchMaxEvents
}

// targetLocked returns the adaptive flush threshold, initializing it to
// the ceiling on first use. Callers hold b.mu.
func (b *Batcher) targetLocked() int {
	if b.target <= 0 {
		b.target = b.ceiling()
	}
	return b.target
}

// FlushTarget reports the current adaptive flush threshold — MaxEvents
// until the backend sheds, smaller while the Batcher is backing off.
func (b *Batcher) FlushTarget() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.targetLocked()
}

// Add buffers one trace, flushing synchronously when the buffer reaches
// the adaptive flush target. The flush error (if any) surfaces here so
// the caller's retry classifier sees it.
func (b *Batcher) Add(ctx context.Context, tr flighting.Trace) error {
	b.mu.Lock()
	b.buf = append(b.buf, tr)
	full := len(b.buf) >= b.targetLocked()
	b.mu.Unlock()
	if full {
		return b.Flush(ctx)
	}
	return nil
}

// Len reports the currently buffered trace count.
func (b *Batcher) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

// Flush ships everything buffered at the time of the call, in requests of
// at most the current flush target. On failure the unshipped traces are
// put back at the front of the buffer — nothing is dropped, nothing
// already acknowledged is re-sent — and a later flush retries them. A 429
// rejection halves the flush target; each accepted request adds one back.
func (b *Batcher) Flush(ctx context.Context) error {
	b.mu.Lock()
	batch := b.buf
	b.buf = nil
	b.mu.Unlock()
	for len(batch) > 0 {
		n := b.FlushTarget()
		if n > len(batch) {
			n = len(batch)
		}
		if _, err := b.client.PostEventBatch(ctx, b.user, b.jobID, batch[:n:n]); err != nil {
			b.mu.Lock()
			if resilience.StatusOf(err) == http.StatusTooManyRequests {
				// The backend said "too much, come back later": halve the
				// target so the retry (and the trigger) respect the shed.
				if b.target = b.targetLocked() / 2; b.target < MinBatchFlushEvents {
					b.target = MinBatchFlushEvents
				}
			}
			b.buf = append(batch, b.buf...)
			b.mu.Unlock()
			return err
		}
		b.mu.Lock()
		if t := b.targetLocked(); t < b.ceiling() {
			b.target = t + 1
		}
		b.mu.Unlock()
		batch = batch[n:]
	}
	return nil
}

// flush is the background loop's Flush: errors go to OnError (or the
// client's logger) instead of a caller.
func (b *Batcher) flush(ctx context.Context) {
	if err := b.Flush(ctx); err != nil {
		if b.OnError != nil {
			b.OnError(err)
			return
		}
		b.client.logf("client: background batch flush: %v", err)
	}
}

// Close stops the interval flusher (if started) and ships whatever is
// buffered. The final flush uses the caller's context, not the (cancelled)
// loop context.
func (b *Batcher) Close(ctx context.Context) error {
	if b.cancel != nil {
		b.cancel()
	}
	b.wg.Wait()
	return b.Flush(ctx)
}
