package main

import (
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/stats"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample, which is how
// a metric its workload does not exercise reads.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, p/100)
}

func msSince(clock resilience.Clock, t time.Time) float64 {
	return float64(clock.Now().Sub(t).Nanoseconds()) / 1e6
}
