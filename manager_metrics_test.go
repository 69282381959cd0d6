package rockhopper

import (
	"bytes"
	"strings"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// TestManagerMetrics drives one signature into a guardrail trip and checks
// the manager publishes iterations and exactly one trip (the disable edge,
// not one per disabled observation), with no series per signature.
func TestManagerMetrics(t *testing.T) {
	m, err := NewManager(QuerySpace(), WithGuardrail(5, 0.005, 2))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m.SetMetrics(reg)

	const sig = "regressing"
	iters := 0
	growth := 1000.0
	tn, _ := m.Tuner(sig)
	for i := 0; i < 60 && !tn.Disabled(); i++ {
		cfg, err := m.Suggest(sig, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(sig, Observation{Config: cfg, DataSize: 1e9, Time: growth, Iteration: i}); err != nil {
			t.Fatal(err)
		}
		iters++
		growth *= 1.12
	}
	if !tn.Disabled() {
		t.Fatal("guardrail never tripped")
	}

	iterations := reg.Counter("rockhopper_tuner_iterations_total", "", "algo")
	if got := iterations.With("centroid").Value(); got != float64(iters) {
		t.Errorf("iterations = %v, want %d", got, iters)
	}
	trips := reg.Counter("rockhopper_guardrail_trips_total", "").With()
	if got := trips.Value(); got != 1 {
		t.Errorf("guardrail trips = %v, want 1", got)
	}
	var scrape bytes.Buffer
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(scrape.String(), sig) || strings.Contains(scrape.String(), "best_cost") {
		t.Errorf("manager scrape names a signature or a best-cost series:\n%s", scrape.String())
	}

	// Observations while disabled must not re-count the same incident.
	for i := 0; i < 3; i++ {
		cfg, _ := m.Suggest(sig, 1e9)
		if err := m.Observe(sig, Observation{Config: cfg, DataSize: 1e9, Time: growth, Iteration: iters + i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := trips.Value(); got != 1 {
		t.Errorf("trips after disabled stretch = %v, want still 1", got)
	}
}
