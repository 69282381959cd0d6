// Package embedding computes workload embeddings: compact vectors that
// characterize a query's execution plan and serve as the "context" of the
// contextual surrogate model f([embedding, configs]) = perf (Section 4.1).
//
// Two schemes are implemented:
//
//   - Plain: the Phoebe-style embedding of [Zhu et al., VLDB'21] — estimated
//     root cardinality, total leaf input cardinality, and a count per
//     physical operator kind. This is the ablation baseline of Section 6.2.
//   - Virtual: Rockhopper's refinement. Each physical operator is split into
//     *virtual operators* by bucketing its estimated input and output sizes
//     against clustering thresholds (Figure 4), so that e.g. a Filter that
//     barely reduces a huge input and a Filter that collapses it to a few
//     rows count as different operator types. The thresholds are the
//     fine-tuned clustering boundaries the paper mentions.
//
// Cardinalities enter the vector as log1p values so that scans of 10⁴ and
// 10⁸ rows remain commensurable for distance-based surrogates.
package embedding

import (
	"fmt"
	"math"

	"github.com/rockhopper-db/rockhopper/internal/sparksim"
)

// Scheme selects the embedding flavour.
type Scheme int

const (
	// Plain is the operator-count embedding from prior work.
	Plain Scheme = iota
	// Virtual adds input/output-size virtual operator refinement.
	Virtual
)

func (s Scheme) String() string {
	if s == Virtual {
		return "virtual"
	}
	return "plain"
}

// Embedder converts plans to fixed-width vectors. It is stateless.
type Embedder struct {
	Scheme Scheme
	// InputThresholds and OutputThresholds are ascending row-count
	// boundaries that bucket an operator's estimated input and output sizes
	// into len+1 classes each. Only used by the Virtual scheme.
	InputThresholds  []float64
	OutputThresholds []float64
	// Structural appends plan-shape features — tree depth, the length of
	// the longest join chain, and leaf count — the "complex execution plan
	// structures" direction the paper flags as future work (citing Eraser's
	// richer plan encodings).
	Structural bool
}

// Default thresholds: the experiments in Section 6.2 fine-tune the
// clustering boundaries end-to-end; these values separate "small dimension
// table", "mid-size stream", and "large fact scan" regimes at SF≈1.
var (
	defaultInputThresholds  = []float64{1e5, 1e7}
	defaultOutputThresholds = []float64{1e4, 1e6}
)

// NewPlain returns the operator-count baseline embedder.
func NewPlain() *Embedder { return &Embedder{Scheme: Plain} }

// NewVirtual returns a virtual-operator embedder with the default
// fine-tuned thresholds.
func NewVirtual() *Embedder {
	return &Embedder{
		Scheme:           Virtual,
		InputThresholds:  defaultInputThresholds,
		OutputThresholds: defaultOutputThresholds,
	}
}

func (e *Embedder) inThr() []float64 {
	if len(e.InputThresholds) == 0 {
		return defaultInputThresholds
	}
	return e.InputThresholds
}

func (e *Embedder) outThr() []float64 {
	if len(e.OutputThresholds) == 0 {
		return defaultOutputThresholds
	}
	return e.OutputThresholds
}

// Dim returns the embedding width: 2 cardinality features plus the operator
// count block, plus 3 structural features when enabled.
func (e *Embedder) Dim() int {
	d := 2 + sparksim.NumOps
	if e.Scheme == Virtual {
		nIn := len(e.inThr()) + 1
		nOut := len(e.outThr()) + 1
		d = 2 + sparksim.NumOps*nIn*nOut
	}
	if e.Structural {
		d += 3
	}
	return d
}

func bucket(v float64, thresholds []float64) int {
	for i, t := range thresholds {
		if v < t {
			return i
		}
	}
	return len(thresholds)
}

// Embed computes the embedding of plan.
func (e *Embedder) Embed(plan *sparksim.Plan) []float64 {
	out := make([]float64, e.Dim())
	out[0] = math.Log1p(plan.RootCardinality())
	out[1] = math.Log1p(plan.LeafInputCardinality())
	if e.Scheme == Plain {
		counts := plan.OperatorCounts()
		for i, c := range counts {
			out[2+i] = float64(c)
		}
	} else {
		inThr, outThr := e.inThr(), e.outThr()
		nIn, nOut := len(inThr)+1, len(outThr)+1
		plan.Walk(func(n *sparksim.Node) {
			bi := bucket(n.InRows, inThr)
			bo := bucket(n.OutRows, outThr)
			idx := 2 + (int(n.Op)*nIn+bi)*nOut + bo
			out[idx]++
		})
	}
	if e.Structural {
		depth, chain, leaves := structuralFeatures(plan)
		base := e.Dim() - 3
		out[base] = float64(depth)
		out[base+1] = float64(chain)
		out[base+2] = float64(leaves)
	}
	return out
}

// structuralFeatures computes tree depth, the longest root-to-leaf chain of
// join operators, and the leaf count.
func structuralFeatures(plan *sparksim.Plan) (depth, joinChain, leaves int) {
	var rec func(n *sparksim.Node, d, joins int)
	rec = func(n *sparksim.Node, d, joins int) {
		if n == nil {
			return
		}
		if n.Op == sparksim.OpSortMergeJoin || n.Op == sparksim.OpBroadcastHashJoin {
			joins++
		}
		if joins > joinChain {
			joinChain = joins
		}
		if d > depth {
			depth = d
		}
		if len(n.Children) == 0 {
			leaves++
			return
		}
		for _, c := range n.Children {
			rec(c, d+1, joins)
		}
	}
	rec(plan.Root, 1, 0)
	return depth, joinChain, leaves
}

// VirtualOpName renders a virtual operator label like
// "Filter[in:1,out:0]" for monitoring dashboards and explainability logs
// ("the suggested configurations along with their rationale", Section 5).
func (e *Embedder) VirtualOpName(op sparksim.Op, inRows, outRows float64) string {
	if e.Scheme == Plain {
		return op.String()
	}
	return fmt.Sprintf("%s[in:%d,out:%d]", op, bucket(inRows, e.inThr()), bucket(outRows, e.outThr()))
}

// Distance returns the Euclidean distance between two embeddings; the
// contextual surrogate's notion of "workloads with similar contexts".
func Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
