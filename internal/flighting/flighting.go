// Package flighting implements Rockhopper's offline phase (Section 4.2): the
// "flighting pipeline" that executes open-source benchmark workloads under
// varying Spark configurations to collect training data, the ETL that turns
// execution traces into surrogate training points, and the baseline-model
// samplers used for transfer learning (Figure 12's leave-one-query-out
// protocol).
//
// It also provides the V0 evaluation platform of Section 6.2: a cached
// candidate set of pre-recorded configuration/performance pairs per query, so
// tuning algorithms can be evaluated against recorded results without live
// execution.
package flighting

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/rockhopper-db/rockhopper/internal/embedding"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

// Config is the flighting pipeline's configuration file (Section 4.2): the
// benchmark database, query selection, scaling factor, number of runs, the
// pool (cluster shape), and the configuration-generation algorithm.
type Config struct {
	// Suite is the benchmark database (TPC-DS or TPC-H).
	Suite workloads.Suite `json:"suite"`
	// Queries selects 1-based query numbers; empty means the whole suite.
	Queries []int `json:"queries,omitempty"`
	// ScaleFactor multiplies benchmark table sizes.
	ScaleFactor float64 `json:"scale_factor"`
	// RunsPerQuery is the number of configuration samples per query.
	RunsPerQuery int `json:"runs_per_query"`
	// Algorithm selects configuration generation: "random" (the production
	// setting) or "lhs" (Latin hypercube sampling, the coverage-guaranteeing
	// design from prior work that the paper lists as future work for the
	// pipeline). Empty means random.
	Algorithm string `json:"algorithm"`
	// Seed drives both configuration sampling and simulated noise.
	Seed uint64 `json:"seed"`
	// Noise perturbs recorded times; offline experiments on a quiet pool
	// use low noise.
	Noise noise.Model `json:"noise"`
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Suite != workloads.TPCDS && c.Suite != workloads.TPCH {
		return fmt.Errorf("flighting: unknown suite %q", c.Suite)
	}
	if c.ScaleFactor <= 0 {
		return fmt.Errorf("flighting: scale factor must be positive, got %g", c.ScaleFactor)
	}
	if c.RunsPerQuery <= 0 {
		return fmt.Errorf("flighting: runs per query must be positive, got %d", c.RunsPerQuery)
	}
	if c.Algorithm != "" && c.Algorithm != "random" && c.Algorithm != "lhs" {
		return fmt.Errorf("flighting: unsupported config generation algorithm %q", c.Algorithm)
	}
	for _, q := range c.Queries {
		if q < 1 || q > c.Suite.QueryCount() {
			return fmt.Errorf("flighting: %s has no query %d", c.Suite, q)
		}
	}
	return nil
}

// Trace is one recorded benchmark execution: the event-log row the ETL
// produces (Figure 7's Embedding ETL output). A trace without an embedding
// (plain event ingest) stores no "embedding" key at all: the store keeps
// every event file for the signature's lifetime, so the 17 bytes of
// `"embedding":null,` are paid per retained event.
type Trace struct {
	QueryID   string          `json:"query_id"`
	Embedding []float64       `json:"embedding,omitempty"`
	Config    sparksim.Config `json:"config"`
	DataSize  float64         `json:"data_size"`
	TimeMs    float64         `json:"time_ms"`
}

// Pipeline executes flighting runs against the simulated engine.
type Pipeline struct {
	Engine   *sparksim.Engine
	Embedder *embedding.Embedder
}

// NewPipeline returns a pipeline with the virtual-operator embedder.
func NewPipeline(e *sparksim.Engine) *Pipeline {
	return &Pipeline{Engine: e, Embedder: embedding.NewVirtual()}
}

// Run executes the configured benchmark sweep and returns the traces.
func (p *Pipeline) Run(cfg Config) ([]Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen := workloads.NewGenerator(cfg.Seed)
	gen.ScaleFactor = cfg.ScaleFactor
	ids := cfg.Queries
	if len(ids) == 0 {
		ids = make([]int, cfg.Suite.QueryCount())
		for i := range ids {
			ids[i] = i + 1
		}
	}
	root := stats.NewRNG(cfg.Seed)
	traces := make([]Trace, 0, len(ids)*cfg.RunsPerQuery)
	for _, idx := range ids {
		q := gen.Query(cfg.Suite, idx)
		emb := p.Embedder.Embed(q.Plan)
		r := root.SplitNamed(q.ID)
		var plan []sparksim.Config
		if cfg.Algorithm == "lhs" {
			plan = p.Engine.Space.LatinHypercube(cfg.RunsPerQuery, r)
		}
		for run := 0; run < cfg.RunsPerQuery; run++ {
			var c sparksim.Config
			if plan != nil {
				c = plan[run]
			} else {
				c = p.Engine.Space.Random(r)
			}
			o := p.Engine.Run(q, c, 1, r, cfg.Noise)
			traces = append(traces, Trace{
				QueryID:   q.ID,
				Embedding: emb,
				Config:    o.Config,
				DataSize:  o.DataSize,
				TimeMs:    o.Time,
			})
		}
	}
	return traces, nil
}

// WriteTraces streams traces as JSON lines, the event-file format the
// backend's storage manager persists.
func WriteTraces(w io.Writer, traces []Trace) error {
	enc := json.NewEncoder(w)
	for i := range traces {
		if err := enc.Encode(&traces[i]); err != nil {
			return fmt.Errorf("flighting: write trace %d: %w", i, err)
		}
	}
	return nil
}

// ReadTraces parses a JSON-lines trace stream.
func ReadTraces(r io.Reader) ([]Trace, error) { return readLines[Trace](nil, r) }

// ParseTraces is ReadTraces over a stream already in memory, at a fraction
// of the garbage: a canonical WriteTraces stream — one trace per line — is
// decoded line by line with json.Unmarshal, where ReadTraces' json.Decoder
// allocates and regrows a read buffer per stream. Any other layout (a value
// spanning lines, several on one line, a decode error) is handed to
// ReadTraces whole, so both accept the same streams and report the same
// errors.
func ParseTraces(b []byte) ([]Trace, error) { return appendLines[Trace](nil, b) }

// Row is the part of a trace a surrogate is fitted on: the configuration,
// the input size and the observed time. The embedding and the query ID are
// not part of it.
type Row struct {
	Config   sparksim.Config `json:"config"`
	DataSize float64         `json:"data_size"`
	TimeMs   float64         `json:"time_ms"`
}

// AppendRows appends the rows of a trace stream to dst, decoded as
// ParseTraces decodes the stream: it accepts every stream ParseTraces
// accepts, with the same configuration, size and time. The other keys of a
// trace (the 101-float embedding above all) are skipped by the JSON scanner,
// never parsed into numbers. On error dst is returned unchanged.
func AppendRows(dst []Row, b []byte) ([]Row, error) { return appendLines(dst, b) }

// appendLines decodes a JSON-lines stream of T onto dst, each canonical line
// straight into its slot; any other layout is decoded whole by readLines.
func appendLines[T any](dst []T, b []byte) ([]T, error) {
	n := len(dst)
	var zero T
	for rest := b; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		dst = append(dst, zero)
		if json.Unmarshal(line, &dst[len(dst)-1]) != nil {
			return readLines(dst[:n], bytes.NewReader(b))
		}
	}
	return dst, nil
}

// readLines decodes a stream of JSON values of T onto dst.
func readLines[T any](dst []T, r io.Reader) ([]T, error) {
	n := len(dst)
	dec := json.NewDecoder(r)
	for {
		var v T
		if err := dec.Decode(&v); err == io.EOF {
			return dst, nil
		} else if err != nil {
			return dst[:n], fmt.Errorf("flighting: read trace %d: %w", len(dst)-n, err)
		}
		dst = append(dst, v)
	}
}

// ToBaseline converts traces into surrogate warm-start points.
func ToBaseline(traces []Trace) []tuners.BaselinePoint {
	out := make([]tuners.BaselinePoint, len(traces))
	for i, t := range traces {
		out[i] = tuners.BaselinePoint{
			Context:  t.Embedding,
			Config:   t.Config,
			DataSize: t.DataSize,
			Time:     t.TimeMs,
		}
	}
	return out
}

// LeaveOneOut samples n baseline points from all traces except those of the
// target query — the transfer-learning protocol of Figure 12 ("trained on
// data sampled from all queries except the optimization target"). n ≤ 0
// keeps everything.
func LeaveOneOut(traces []Trace, excludeQueryID string, n int, r *stats.RNG) []tuners.BaselinePoint {
	var pool []Trace
	for _, t := range traces {
		if t.QueryID != excludeQueryID {
			pool = append(pool, t)
		}
	}
	if n > 0 && n < len(pool) {
		idx := r.Perm(len(pool))[:n]
		sub := make([]Trace, 0, n)
		for _, i := range idx {
			sub = append(sub, pool[i])
		}
		pool = sub
	}
	return ToBaseline(pool)
}

// CachedPlatform is the V0 evaluation platform (Section 6.2): a fixed
// candidate set of pre-recorded configurations with cached performance, used
// for inference without live query execution. Production used over 275
// configuration combinations per query.
type CachedPlatform struct {
	Query   *sparksim.Query
	Configs []sparksim.Config
	// Times are the recorded noiseless execution times at the platform's
	// scale, indexed like Configs.
	Times []float64
	scale float64
}

// NewCachedPlatform records nConfigs random configurations of q.
func NewCachedPlatform(e *sparksim.Engine, q *sparksim.Query, nConfigs int, scale float64, seed uint64) *CachedPlatform {
	r := stats.NewRNG(seed).SplitNamed("v0-" + q.ID)
	cp := &CachedPlatform{Query: q, scale: scale}
	cp.Configs = append(cp.Configs, e.Space.Default())
	for i := 1; i < nConfigs; i++ {
		cp.Configs = append(cp.Configs, e.Space.Random(r))
	}
	cp.Times = make([]float64, len(cp.Configs))
	for i, c := range cp.Configs {
		cp.Times[i] = e.TrueTime(q, c, scale)
	}
	return cp
}

// Lookup snaps an arbitrary configuration to the nearest recorded candidate
// (normalized Euclidean distance) and returns its index and cached time —
// "we restrict the candidate set to these pre-recorded configurations and
// use cached results without live query execution".
func (cp *CachedPlatform) Lookup(space *sparksim.Space, cfg sparksim.Config) (int, float64) {
	u := space.Normalize(cfg)
	bestIdx, bestDist := 0, math.Inf(1)
	for i, c := range cp.Configs {
		v := space.Normalize(c)
		var d float64
		for j := range u {
			dd := u[j] - v[j]
			d += dd * dd
		}
		if d < bestDist {
			bestIdx, bestDist = i, d
		}
	}
	return bestIdx, cp.Times[bestIdx]
}

// BestTime returns the minimum cached time (the platform's oracle optimum).
func (cp *CachedPlatform) BestTime() float64 { return stats.Min(cp.Times) }

// Scale returns the data-size scale the platform recorded at.
func (cp *CachedPlatform) Scale() float64 { return cp.scale }
