package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/rockhopper-db/rockhopper/internal/sparksim"
)

// Snapshot is the serializable tuning state of one query signature: enough
// to resume Centroid Learning exactly where a previous process left off.
// The production system reconstructs this state from event files in the
// backend store (Figure 7); Snapshot/Restore provide the same durability
// for embedded deployments. Selectors are not part of the snapshot — they
// are stateless given the observation history and are re-supplied on
// restore.
type Snapshot struct {
	Params   Params
	Centroid []float64
	Start    sparksim.Config
	History  []sparksim.Observation
	Disabled bool
	// GuardBreach is the guardrail's count of consecutive breaches; its
	// trend is refitted from History.
	GuardBreach int
}

// Snapshot captures the learner's current state.
func (c *CentroidLearner) Snapshot() Snapshot {
	s := Snapshot{
		Params:   c.Params,
		Centroid: append([]float64(nil), c.centroid...),
		Disabled: c.disabled,
	}
	if c.Start != nil {
		s.Start = c.Start.Clone()
	}
	s.History = make([]sparksim.Observation, len(c.hist.Obs))
	for i, o := range c.hist.Obs {
		o.Config = o.Config.Clone()
		s.History[i] = o
	}
	if c.Guardrail != nil {
		s.GuardBreach = c.Guardrail.run
	}
	return s
}

// Restore replaces the learner's state with the snapshot's. The learner's
// Selector and RNG are kept; the guardrail's breach count is restored only
// when the learner has a guardrail configured.
func (c *CentroidLearner) Restore(s Snapshot) {
	c.Params = s.Params
	c.centroid = append([]float64(nil), s.Centroid...)
	if len(c.centroid) == 0 {
		c.centroid = nil
	}
	if s.Start != nil {
		c.Start = s.Start.Clone()
	} else {
		c.Start = nil
	}
	c.disabled = s.Disabled
	c.hist.Obs = make([]sparksim.Observation, len(s.History))
	for i, o := range s.History {
		o.Config = o.Config.Clone()
		c.hist.Obs[i] = o
	}
	if c.Guardrail != nil {
		c.Guardrail.run = s.GuardBreach
	}
}

// Iterations returns the number of observations recorded so far, i.e. the
// next iteration index to use after a restore.
func (c *CentroidLearner) Iterations() int { return c.hist.Len() }

// EncodeSnapshot serializes a snapshot with encoding/gob.
func EncodeSnapshot(s Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("core: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot deserializes a snapshot.
func DecodeSnapshot(blob []byte) (Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("core: decode snapshot: %w", err)
	}
	return s, nil
}
