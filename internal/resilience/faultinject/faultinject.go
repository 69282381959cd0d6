// Package faultinject provides composable, deterministic fault injection for
// resilience testing: a faulty http.RoundTripper and a faulty object-store
// wrapper, both driven by Plans (error rates from a seeded stats.RNG, latency
// injection, fail-N-then-recover scripts). The fault-matrix test suite uses
// these to prove the client/backend loop degrades gracefully instead of
// silently, mirroring the chaos-style validation production tuning services
// run before shipping.
package faultinject

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
)

// ErrInjected is the default injected fault.
var ErrInjected = errors.New("faultinject: injected fault")

// Decision is the fate of one operation.
type Decision struct {
	// Err, when non-nil, is returned instead of performing the operation.
	Err error
	// Delay is injected latency applied before the operation (or the fault).
	Delay time.Duration
}

// Plan decides the fate of each operation. op names the operation, e.g.
// "GET /api/object" or "store.Commit"; plans may ignore it or filter on it.
type Plan interface {
	Decide(op string) Decision
}

// Rate fails a Bernoulli(P) fraction of operations, drawn deterministically
// from RNG, and optionally injects Delay on every operation.
type Rate struct {
	// P is the fault probability in [0, 1].
	P float64
	// RNG drives the coin flips; required when P > 0.
	RNG *stats.RNG
	// Err overrides ErrInjected.
	Err error
	// Delay is added to every operation, faulted or not.
	Delay time.Duration

	mu sync.Mutex
}

// Decide implements Plan.
func (r *Rate) Decide(string) Decision {
	d := Decision{Delay: r.Delay}
	if r.P <= 0 || r.RNG == nil {
		return d
	}
	r.mu.Lock()
	hit := r.RNG.Bernoulli(r.P)
	r.mu.Unlock()
	if hit {
		d.Err = r.Err
		if d.Err == nil {
			d.Err = ErrInjected
		}
	}
	return d
}

// FailN fails the first N operations and then recovers — the "transient
// outage heals" script.
type FailN struct {
	N   int64
	Err error

	calls atomic.Int64
}

// Decide implements Plan.
func (f *FailN) Decide(string) Decision {
	if f.calls.Add(1) <= f.N {
		err := f.Err
		if err == nil {
			err = ErrInjected
		}
		return Decision{Err: err}
	}
	return Decision{}
}

// Script plays a fixed fail/succeed sequence, then succeeds forever.
type Script struct {
	// Fail[i] faults the i-th operation.
	Fail []bool

	idx atomic.Int64
}

// Decide implements Plan.
func (s *Script) Decide(string) Decision {
	i := s.idx.Add(1) - 1
	if int(i) < len(s.Fail) && s.Fail[i] {
		return Decision{Err: ErrInjected}
	}
	return Decision{}
}

// ForOps restricts Plan to the named operations; everything else passes.
type ForOps struct {
	Plan Plan
	Ops  []string
}

// Decide implements Plan.
func (f *ForOps) Decide(op string) Decision {
	for _, o := range f.Ops {
		if o == op {
			return f.Plan.Decide(op)
		}
	}
	return Decision{}
}

// Transport is an http.RoundTripper that consults Plan before forwarding to
// Inner (nil = http.DefaultTransport). Operations are named
// "METHOD /path". Injected latency respects the request context.
type Transport struct {
	Inner http.RoundTripper
	Plan  Plan

	// Attempts counts every round trip offered; Forwarded only those that
	// reached the inner transport.
	Attempts  atomic.Int64
	Forwarded atomic.Int64
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.Attempts.Add(1)
	d := Decision{}
	if t.Plan != nil {
		d = t.Plan.Decide(req.Method + " " + req.URL.Path)
	}
	if d.Delay > 0 {
		//rocklint:allow wallclock -- fault injection delays real round trips by design; tests bound it via the request context
		timer := time.NewTimer(d.Delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	if d.Err != nil {
		return nil, d.Err
	}
	t.Forwarded.Add(1)
	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	return inner.RoundTrip(req)
}

// ObjectStore is the store surface the backend consumes; *store.Store
// satisfies it (it structurally matches backend.ObjectStore without
// importing the backend package).
type ObjectStore interface {
	Sign(prefix string, perm store.Permission, ttl time.Duration) string
	Verify(tok, p string, perm store.Permission) error
	Get(tok, p string) ([]byte, error)
	GetInternal(p string) ([]byte, error)
	List(prefix string) []string
	Commit(ctx context.Context, entries []store.Entry) error
}

// Store wraps an ObjectStore with plan-driven faults on the fallible
// operations, named "store.Commit", "store.Get" and "store.GetInternal".
// Sign, Verify and List pass through untouched.
type Store struct {
	Inner ObjectStore
	Plan  Plan
}

func (s *Store) decide(op string) error {
	if s.Plan == nil {
		return nil
	}
	d := s.Plan.Decide(op)
	if d.Delay > 0 {
		//rocklint:allow wallclock -- injected store latency is real wall time by design
		time.Sleep(d.Delay)
	}
	return d.Err
}

// Sign implements ObjectStore.
func (s *Store) Sign(prefix string, perm store.Permission, ttl time.Duration) string {
	return s.Inner.Sign(prefix, perm, ttl)
}

// Verify implements ObjectStore.
func (s *Store) Verify(tok, p string, perm store.Permission) error {
	return s.Inner.Verify(tok, p, perm)
}

// Commit implements ObjectStore: the one mutation, so the one write fault.
func (s *Store) Commit(ctx context.Context, entries []store.Entry) error {
	if err := s.decide("store.Commit"); err != nil {
		return err
	}
	return s.Inner.Commit(ctx, entries)
}

// Get implements ObjectStore.
func (s *Store) Get(tok, p string) ([]byte, error) {
	if err := s.decide("store.Get"); err != nil {
		return nil, err
	}
	return s.Inner.Get(tok, p)
}

// GetInternal implements ObjectStore.
func (s *Store) GetInternal(p string) ([]byte, error) {
	if err := s.decide("store.GetInternal"); err != nil {
		return nil, err
	}
	return s.Inner.GetInternal(p)
}

// List implements ObjectStore.
func (s *Store) List(prefix string) []string { return s.Inner.List(prefix) }
