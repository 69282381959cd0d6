// Package sparksim is the simulated Apache Spark substrate on which every
// Rockhopper experiment runs. The real paper tunes Spark on Microsoft Fabric
// clusters; this package replaces the cluster with a deterministic analytic
// cost model over query execution plans, exposing exactly the interface the
// tuning algorithms observe in production: submit a query with a
// configuration, get back an execution time and an input data size.
//
// The package has three parts:
//
//   - the configuration space (this file): typed Spark parameters at query
//     and application level, with defaults, bounds, log scaling, neighbour
//     generation, and snapping to legal values;
//   - query plans (plan.go): operator trees with optimizer cardinality
//     estimates, the input to workload embeddings;
//   - the engine (cost.go): an analytic cost model that walks a plan and
//     charges scan, shuffle, join, aggregation, and scheduling costs as
//     functions of the configuration, cluster shape, and input data size.
package sparksim

import (
	"fmt"
	"math"

	"github.com/rockhopper-db/rockhopper/internal/stats"
)

// Level says whether a parameter binds at query submission or application
// startup (Section 4.4): app-level values must stay fixed for the lifetime of
// a Spark application, query-level values may change per query.
type Level int

const (
	// QueryLevel parameters are set per query at submission time.
	QueryLevel Level = iota
	// AppLevel parameters are fixed at application startup.
	AppLevel
)

func (l Level) String() string {
	if l == AppLevel {
		return "app"
	}
	return "query"
}

// Canonical Spark parameter names used throughout the repository. The three
// query-level parameters are the ones Rockhopper tunes in production
// (Section 6.3); the app-level parameters appear in the manual-tuning study
// and the joint optimizer.
const (
	MaxPartitionBytes    = "spark.sql.files.maxPartitionBytes"
	AutoBroadcastJoinThr = "spark.sql.autoBroadcastJoinThreshold"
	ShufflePartitions    = "spark.sql.shuffle.partitions"
	ExecutorInstances    = "spark.executor.instances"
	ExecutorMemoryGB     = "spark.executor.memory"
	OffHeapEnabled       = "spark.memory.offHeap.enabled"
	OffHeapSizeGB        = "spark.memory.offHeap.size"
)

// Param describes one tunable configuration dimension.
type Param struct {
	Name    string
	Level   Level
	Min     float64
	Max     float64
	Default float64
	// Log marks dimensions that are searched in log space (byte sizes,
	// partition counts); neighbourhood steps are multiplicative for these.
	Log bool
	// Quantum, when > 0, snaps applied values to multiples of this quantum
	// (e.g. whole partitions, whole executors).
	Quantum float64
}

// Snap clamps v into [Min, Max] and rounds to the parameter's quantum.
func (p Param) Snap(v float64) float64 {
	v = stats.Clamp(v, p.Min, p.Max)
	if p.Quantum > 0 {
		v = math.Round(v/p.Quantum) * p.Quantum
		v = stats.Clamp(v, p.Min, p.Max)
	}
	return v
}

// Space is an ordered set of parameters; a Config is a vector aligned with
// this order.
type Space struct {
	Params []Param
	index  map[string]int
}

// NewSpace builds a Space from parameter definitions, validating bounds.
func NewSpace(params ...Param) (*Space, error) {
	s := &Space{Params: params, index: make(map[string]int, len(params))}
	for i, p := range params {
		if p.Min >= p.Max {
			return nil, fmt.Errorf("sparksim: param %q has empty range [%g, %g]", p.Name, p.Min, p.Max)
		}
		if p.Default < p.Min || p.Default > p.Max {
			return nil, fmt.Errorf("sparksim: param %q default %g outside [%g, %g]", p.Name, p.Default, p.Min, p.Max)
		}
		if p.Log && p.Min <= 0 {
			return nil, fmt.Errorf("sparksim: log param %q has non-positive min %g", p.Name, p.Min)
		}
		if _, dup := s.index[p.Name]; dup {
			return nil, fmt.Errorf("sparksim: duplicate param %q", p.Name)
		}
		s.index[p.Name] = i
	}
	return s, nil
}

// MustSpace is NewSpace that panics on error; for package-level defaults.
func MustSpace(params ...Param) *Space {
	s, err := NewSpace(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the number of parameters.
func (s *Space) Dim() int { return len(s.Params) }

// Index returns the position of the named parameter, or −1.
func (s *Space) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Config is a point in a Space: one value per parameter, in Space order.
type Config []float64

// Default returns the default configuration.
func (s *Space) Default() Config {
	c := make(Config, len(s.Params))
	for i, p := range s.Params {
		c[i] = p.Default
	}
	return c
}

// Clone copies a configuration.
func (c Config) Clone() Config { return append(Config(nil), c...) }

// Get returns the value of the named parameter, or NaN if absent.
func (s *Space) Get(c Config, name string) float64 {
	i := s.Index(name)
	if i < 0 || i >= len(c) {
		return math.NaN()
	}
	return c[i]
}

// With returns a copy of c with the named parameter set (snapped).
func (s *Space) With(c Config, name string, v float64) Config {
	i := s.Index(name)
	out := c.Clone()
	if i >= 0 {
		out[i] = s.Params[i].Snap(v)
	}
	return out
}

// Random returns a uniformly random configuration (log-uniform on log
// dimensions), snapped to legal values.
func (s *Space) Random(r *stats.RNG) Config {
	c := make(Config, len(s.Params))
	for i, p := range s.Params {
		if p.Log {
			c[i] = p.Snap(math.Exp(r.Uniform(math.Log(p.Min), math.Log(p.Max))))
		} else {
			c[i] = p.Snap(r.Uniform(p.Min, p.Max))
		}
	}
	return c
}

// LatinHypercube generates n configurations by Latin hypercube sampling:
// each dimension's [0,1] range is split into n strata, each stratum is
// sampled once, and the per-dimension samples are permuted independently.
// Compared to uniform random generation this guarantees marginal coverage,
// the property that made LHS a popular offline-exploration design in prior
// Spark-tuning work the paper cites.
func (s *Space) LatinHypercube(n int, r *stats.RNG) []Config {
	if n <= 0 {
		return nil
	}
	dim := len(s.Params)
	// strata[j][k] is the sample for dimension j in stratum k.
	cols := make([][]float64, dim)
	for j := 0; j < dim; j++ {
		col := make([]float64, n)
		for k := 0; k < n; k++ {
			col[k] = (float64(k) + r.Float64()) / float64(n)
		}
		r.Shuffle(n, func(a, b int) { col[a], col[b] = col[b], col[a] })
		cols[j] = col
	}
	out := make([]Config, n)
	u := make([]float64, dim)
	for k := 0; k < n; k++ {
		for j := 0; j < dim; j++ {
			u[j] = cols[j][k]
		}
		out[k] = s.Denormalize(u)
	}
	return out
}

// Neighborhood generates n candidate configurations around center. Each
// candidate perturbs every dimension by a uniform step within ±beta of the
// centre, where beta is a fraction of the dimension's range (linear
// dimensions) or of its log-range (log dimensions). This is the candidate
// set C(e_t) of Algorithm 1: bounding the step keeps exploration local,
// which is Rockhopper's primary guard against performance regressions.
func (s *Space) Neighborhood(center Config, beta float64, n int, r *stats.RNG) []Config {
	out := make([]Config, 0, n)
	for k := 0; k < n; k++ {
		c := make(Config, len(s.Params))
		for i, p := range s.Params {
			step := r.Uniform(-beta, beta)
			if p.Log {
				span := math.Log(p.Max) - math.Log(p.Min)
				c[i] = p.Snap(math.Exp(math.Log(center[i]) + step*span))
			} else {
				span := p.Max - p.Min
				c[i] = p.Snap(center[i] + step*span)
			}
		}
		out = append(out, c)
	}
	return out
}

// AxisNeighbors returns the 2·dim single-axis perturbations of center at
// relative step beta, used by the FLOW2 and hill-climbing baselines.
func (s *Space) AxisNeighbors(center Config, beta float64) []Config {
	out := make([]Config, 0, 2*len(s.Params))
	for i, p := range s.Params {
		for _, sign := range []float64{+1, -1} {
			c := center.Clone()
			if p.Log {
				span := math.Log(p.Max) - math.Log(p.Min)
				c[i] = p.Snap(math.Exp(math.Log(center[i]) + sign*beta*span))
			} else {
				c[i] = p.Snap(center[i] + sign*beta*(p.Max-p.Min))
			}
			out = append(out, c)
		}
	}
	return out
}

// Normalize maps c to [0,1]^dim (log dimensions in log space); the inverse of
// Denormalize. Tuners and surrogate models operate on normalized vectors so
// that dimensions with wildly different units are comparable.
func (s *Space) Normalize(c Config) []float64 {
	out := make([]float64, len(c))
	for i, p := range s.Params {
		if p.Log {
			out[i] = (math.Log(c[i]) - math.Log(p.Min)) / (math.Log(p.Max) - math.Log(p.Min))
		} else {
			out[i] = (c[i] - p.Min) / (p.Max - p.Min)
		}
	}
	return out
}

// Denormalize maps a [0,1]^dim vector back to a snapped Config.
func (s *Space) Denormalize(u []float64) Config {
	c := make(Config, len(u))
	for i, p := range s.Params {
		v := stats.Clamp(u[i], 0, 1)
		if p.Log {
			c[i] = p.Snap(math.Exp(math.Log(p.Min) + v*(math.Log(p.Max)-math.Log(p.Min))))
		} else {
			c[i] = p.Snap(p.Min + v*(p.Max-p.Min))
		}
	}
	return c
}

// QueryParams returns the indices of query-level parameters.
func (s *Space) QueryParams() []int {
	var out []int
	for i, p := range s.Params {
		if p.Level == QueryLevel {
			out = append(out, i)
		}
	}
	return out
}

// AppParams returns the indices of app-level parameters.
func (s *Space) AppParams() []int {
	var out []int
	for i, p := range s.Params {
		if p.Level == AppLevel {
			out = append(out, i)
		}
	}
	return out
}

// QuerySpace returns the production tuning space: the three query-level
// parameters Rockhopper tunes in Microsoft Fabric (Section 6.3).
func QuerySpace() *Space {
	return MustSpace(
		Param{Name: MaxPartitionBytes, Level: QueryLevel, Min: 1 << 20, Max: 1 << 30,
			Default: 128 << 20, Log: true, Quantum: 1 << 20},
		Param{Name: AutoBroadcastJoinThr, Level: QueryLevel, Min: 1 << 20, Max: 256 << 20,
			Default: 10 << 20, Log: true, Quantum: 1 << 20},
		Param{Name: ShufflePartitions, Level: QueryLevel, Min: 8, Max: 2000,
			Default: 200, Log: true, Quantum: 1},
	)
}

// FullSpace returns the seven-parameter space of the manual-tuning study
// (Section 2.2): the three query-level parameters plus executor sizing and
// off-heap memory at application level. The boolean off-heap toggle is
// modelled as a continuous [0,1] value thresholded at 0.5, following the
// paper's note that categorical values are embedded into continuous space.
func FullSpace() *Space {
	qs := QuerySpace()
	params := append([]Param{}, qs.Params...)
	params = append(params,
		Param{Name: ExecutorInstances, Level: AppLevel, Min: 1, Max: 64,
			Default: 8, Log: true, Quantum: 1},
		Param{Name: ExecutorMemoryGB, Level: AppLevel, Min: 1, Max: 64,
			Default: 8, Log: true, Quantum: 1},
		Param{Name: OffHeapEnabled, Level: AppLevel, Min: 0, Max: 1, Default: 0},
		Param{Name: OffHeapSizeGB, Level: AppLevel, Min: 0.5, Max: 32,
			Default: 2, Log: true, Quantum: 0.5},
	)
	return MustSpace(params...)
}
