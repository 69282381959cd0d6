// Package tuners defines the common tuning-loop contract and implements the
// baseline configuration optimizers Rockhopper is evaluated against
// (Sections 2.2, 6.1, 6.2): vanilla Bayesian Optimization, Contextual
// Bayesian Optimization with workload embeddings, FLOW2-style frugal
// directional search, hill climbing, and random search. The Centroid
// Learning algorithm itself lives in internal/core and implements the same
// Tuner interface.
package tuners

import (
	"math"

	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
)

// Tuner is one online tuning loop for a single recurrent query signature:
// Propose the configuration for the next run, then Observe its outcome.
// Implementations are not safe for concurrent use; production runs one tuner
// per query signature.
type Tuner interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Propose returns the configuration to apply at iteration t (0-based).
	// DataSize is the expected input size for the upcoming run when known
	// (production knows it only approximately; 0 means unknown).
	Propose(t int, dataSize float64) sparksim.Config
	// Observe records the outcome of the previously proposed run.
	Observe(o sparksim.Observation)
}

// History is a bounded observation log shared by tuner implementations.
type History struct {
	Obs []sparksim.Observation
}

// Add appends an observation. A history lives as long as its tuner and
// only grows, so it grows by an eighth (at least 4) instead of append's
// doubling: at most an eighth of it is spare capacity, and its footprint
// rises in small steps rather than jumping by its whole size.
func (h *History) Add(o sparksim.Observation) {
	if len(h.Obs) == cap(h.Obs) {
		grown := make([]sparksim.Observation, len(h.Obs), len(h.Obs)+max(len(h.Obs)/8, 4))
		copy(grown, h.Obs)
		h.Obs = grown
	}
	h.Obs = append(h.Obs, o)
}

// Len returns the number of recorded observations.
func (h *History) Len() int { return len(h.Obs) }

// Window returns the latest n observations (all of them when n ≤ 0 or n
// exceeds the history), the Ω(t, N) of Algorithm 1.
func (h *History) Window(n int) []sparksim.Observation {
	if n <= 0 || n >= len(h.Obs) {
		return h.Obs
	}
	return h.Obs[len(h.Obs)-n:]
}

// BestObserved returns the observation with the lowest observed time, or
// false when empty. Raw observed time is the FIND_BEST v1 criterion; see
// internal/core for the normalized and model-based refinements.
func (h *History) BestObserved() (sparksim.Observation, bool) {
	if len(h.Obs) == 0 {
		return sparksim.Observation{}, false
	}
	best := h.Obs[0]
	for _, o := range h.Obs[1:] {
		if o.Time < best.Time {
			best = o
		}
	}
	return best, true
}

// ConfigFeatures maps a configuration to the surrogate's input features:
// the normalized configuration vector, optionally prefixed by a workload
// context (embedding) and suffixed with log1p(dataSize). Every surrogate in
// the repository — the baselines here and Centroid Learning's — uses this
// single layout so models are interchangeable.
func ConfigFeatures(space *sparksim.Space, context []float64, cfg sparksim.Config, dataSize float64) []float64 {
	u := space.Normalize(cfg)
	out := make([]float64, 0, len(context)+len(u)+1)
	out = append(out, context...)
	out = append(out, u...)
	out = append(out, math.Log1p(dataSize))
	return out
}

// RandomSearch proposes uniformly random configurations; the zero-skill
// baseline.
type RandomSearch struct {
	Space *sparksim.Space
	RNG   *stats.RNG
	hist  History
}

// NewRandomSearch returns a random-search tuner.
func NewRandomSearch(space *sparksim.Space, rng *stats.RNG) *RandomSearch {
	return &RandomSearch{Space: space, RNG: rng}
}

// Name implements Tuner.
func (r *RandomSearch) Name() string { return "random" }

// Propose implements Tuner. Iteration 0 runs the default configuration so
// every algorithm starts from the same anchor.
func (r *RandomSearch) Propose(t int, _ float64) sparksim.Config {
	if t == 0 {
		return r.Space.Default()
	}
	return r.Space.Random(r.RNG)
}

// Observe implements Tuner.
func (r *RandomSearch) Observe(o sparksim.Observation) { r.hist.Add(o) }

var _ Tuner = (*RandomSearch)(nil)
