package rockhopper

import (
	"fmt"
	"sort"
	"sync"

	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// Manager owns one Tuner per recurrent query signature — the per-query
// tuning model of the production deployment, where Fabric processes
// hundreds of thousands of query runs across thousands of signatures
// (Section 3.1's scalability discussion). It is safe for concurrent use by
// multiple query submission paths; each signature's tuner is still driven
// sequentially by its own recurrent runs.
type Manager struct {
	space *Space
	opts  []Option

	mu      sync.Mutex
	tuners  map[string]*Tuner
	seq     uint64
	tripped map[string]bool // guardrail edge detector per signature

	iterations telemetry.Counter // {algo=managedAlgo}
	trips      telemetry.Counter
}

// managedAlgo is the algorithm label the Manager publishes under: every
// managed tuner runs the paper's Centroid Learning loop.
const managedAlgo = "centroid"

// bindMetrics registers the manager's instruments on reg. The Manager is the
// only publisher of the tuner families. They are aggregates over every
// managed signature: per-signature state is read through Tuner(sig).
func (m *Manager) bindMetrics(reg *telemetry.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.iterations = reg.Counter("rockhopper_tuner_iterations_total",
		"Observations fed to a tuning loop, by algorithm.", "algo").With(managedAlgo)
	m.trips = reg.Counter("rockhopper_guardrail_trips_total",
		"Guardrail reversions to the default configuration.").With()
}

// SetMetrics publishes the manager's convergence instruments — iteration
// and guardrail-trip counts over all managed signatures — to reg. Call it
// before traffic; the default is a discarding registry.
func (m *Manager) SetMetrics(reg *telemetry.Registry) { m.bindMetrics(reg) }

// NewManager builds a manager that creates tuners over space with the given
// default options. Per-signature seeds are derived automatically so two
// signatures never share a random stream.
func NewManager(space *Space, opts ...Option) (*Manager, error) {
	if space == nil || space.Dim() == 0 {
		return nil, fmt.Errorf("rockhopper: a non-empty Space is required")
	}
	// Validate the option set once by building a probe tuner.
	if _, err := NewTuner(space, opts...); err != nil {
		return nil, err
	}
	m := &Manager{
		space:   space,
		opts:    opts,
		tuners:  make(map[string]*Tuner),
		tripped: make(map[string]bool),
	}
	m.bindMetrics(nil)
	return m, nil
}

// Tuner returns the tuner for a query signature, creating it on first use.
func (m *Manager) Tuner(signature string) (*Tuner, error) {
	if signature == "" {
		return nil, fmt.Errorf("rockhopper: empty query signature")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.tuners[signature]; ok {
		return t, nil
	}
	m.seq++
	opts := append(append([]Option(nil), m.opts...), WithSeed(signatureSeed(signature, m.seq)))
	t, err := NewTuner(m.space, opts...)
	if err != nil {
		return nil, err
	}
	m.tuners[signature] = t
	return t, nil
}

// Suggest returns the next configuration for a signature, creating its tuner
// on first use. The iteration index is the tuner's own observation count, so
// concurrent submission paths for the same signature stay consistent.
func (m *Manager) Suggest(signature string, expectedInputBytes float64) (Config, error) {
	t, err := m.Tuner(signature)
	if err != nil {
		return nil, err
	}
	return t.Suggest(expectedInputBytes), nil
}

// Observe reports an execution outcome for a signature, creating its tuner on
// first use (a cold start observed before any Suggest still counts).
func (m *Manager) Observe(signature string, o Observation) error {
	t, err := m.Tuner(signature)
	if err != nil {
		return err
	}
	if err := t.Report(o); err != nil {
		return err
	}
	disabled := t.Disabled()
	m.mu.Lock()
	m.iterations.Inc()
	// Count guardrail trips on the disable edge only: a long disabled
	// stretch is one incident, not one per observation.
	if disabled && !m.tripped[signature] {
		m.trips.Inc()
	}
	m.tripped[signature] = disabled
	m.mu.Unlock()
	return nil
}

// signatureSeed hashes the signature into a stable seed; seq breaks ties for
// adversarially colliding strings.
func signatureSeed(sig string, seq uint64) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(sig); i++ {
		h ^= uint64(sig[i])
		h *= 1099511628211
	}
	return h ^ (seq << 48)
}

// Len returns the number of managed signatures.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tuners)
}

// Signatures returns the managed signatures, sorted.
func (m *Manager) Signatures() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.tuners))
	for s := range m.tuners {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Disabled returns the signatures whose guardrail has reverted tuning to the
// default configuration — the fleet health view of the monitoring dashboard.
func (m *Manager) Disabled() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for s, t := range m.tuners {
		if t.Disabled() {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Forget drops a signature's tuner (e.g. when its plan changes and it gets a
// new signature anyway, or on GDPR deletion of the customer's history).
func (m *Manager) Forget(signature string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.tuners, signature)
	delete(m.tripped, signature)
}
