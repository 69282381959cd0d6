package monitor

import "testing"

// residualNoise is a deterministic pseudo-noise stream (xorshift64*) scaled
// to ±amp — run-to-run simulator jitter in log space without touching the
// global RNG.
type residualNoise struct{ s uint64 }

func (r *residualNoise) next(amp float64) float64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	// Map to [-1, 1) through the top 53 bits, then scale.
	u := float64(r.s>>11) / float64(1<<53)
	return (2*u - 1) * amp
}

// TestDriftStationaryZeroFalsePositives: a long stationary residual stream —
// noise well inside the simulator's run-to-run jitter — must never trip the
// detector. The acceptance bar is zero false positives, so every sample is
// checked, not just the final state.
func TestDriftStationaryZeroFalsePositives(t *testing.T) {
	det := &DriftDetector{}
	noise := &residualNoise{s: 0x9e3779b97f4a7c15}
	for i := 0; i < 5000; i++ {
		if det.Observe(noise.next(0.04)) {
			t.Fatalf("stationary stream tripped the detector at sample %d (score %.3f)", i+1, det.Score())
		}
	}
	if det.Drifting() {
		t.Fatal("detector latched on a stationary stream")
	}
}

// TestDriftTripsWithinTwentyRuns: after a stationary baseline, a sustained
// cost shift (a 30% slowdown is ~0.26 in log space) must flip the detector
// within 20 shifted runs — the ISSUE's acceptance bound.
func TestDriftTripsWithinTwentyRuns(t *testing.T) {
	det := &DriftDetector{}
	noise := &residualNoise{s: 42}
	for i := 0; i < 32; i++ {
		if det.Observe(noise.next(0.03)) {
			t.Fatalf("baseline tripped at sample %d", i+1)
		}
	}
	const shift = 0.26 // log(1.3): a sustained 30% cost regression
	for i := 1; i <= 20; i++ {
		if det.Observe(shift + noise.next(0.03)) {
			t.Logf("tripped after %d shifted runs (score %.3f)", i, det.Score())
			return
		}
	}
	t.Fatalf("detector did not trip within 20 shifted runs (score %.3f)", det.Score())
}

// TestDriftTwoSidedDownward: the detector is two-sided — a model that
// suddenly over-predicts (workload got faster, e.g. after a data purge) is
// drift too, and must trip just as fast.
func TestDriftTwoSidedDownward(t *testing.T) {
	det := &DriftDetector{}
	noise := &residualNoise{s: 7}
	for i := 0; i < 32; i++ {
		det.Observe(noise.next(0.03))
	}
	for i := 1; i <= 20; i++ {
		if det.Observe(-0.26 + noise.next(0.03)) {
			return
		}
	}
	t.Fatalf("downward shift did not trip within 20 runs (score %.3f)", det.Score())
}

// TestDriftLatchesUntilReset: once tripped, on-mean residuals must not
// quietly clear the flag — only Reset does, and Reset restores a clean
// detector that can trip again.
func TestDriftLatchesUntilReset(t *testing.T) {
	trip := func(det *DriftDetector) {
		t.Helper()
		// The Page-Hinkley mean is a running mean of everything observed, so
		// drift is always relative to a baseline — establish one, then shift.
		for i := 0; i < 8; i++ {
			det.Observe(0)
		}
		for i := 0; i < 24 && !det.Drifting(); i++ {
			det.Observe(0.5)
		}
		if !det.Drifting() {
			t.Fatal("sustained 0.5 shift after a zero baseline never tripped")
		}
	}
	det := &DriftDetector{}
	trip(det)
	for i := 0; i < 100; i++ {
		det.Observe(0) // the workload returned on-model — flag must hold
	}
	if !det.Drifting() {
		t.Fatal("detector unlatched without Reset")
	}
	det.Reset()
	if det.Drifting() || det.Samples() != 0 || det.Score() != 0 {
		t.Fatalf("Reset left state behind: drifting=%v samples=%d score=%.3f",
			det.Drifting(), det.Samples(), det.Score())
	}
	trip(det) // a reset detector must be able to trip again
}

// TestDriftMinSamplesGuard: the detector may not trip before MinSamples
// residuals, however large the early excursion — a fresh model's first noisy
// feed is not evidence.
func TestDriftMinSamplesGuard(t *testing.T) {
	det := &DriftDetector{MinSamples: 10}
	if det.Observe(0) {
		t.Fatal("tripped on the baseline sample")
	}
	for i := 2; i <= 9; i++ {
		if det.Observe(5.0) {
			t.Fatalf("tripped at sample %d, before MinSamples=10", i)
		}
	}
	if !det.Observe(5.0) {
		t.Fatal("did not trip at MinSamples with a huge sustained excursion")
	}
}
