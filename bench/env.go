package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/client"
	"github.com/rockhopper-db/rockhopper/internal/fleet/fleettest"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

// Pinned configuration: everything below is a production default or the
// fleet shape ROADMAP aim 1 names; README.md lists it.
const (
	clusterSecret = "bench-cluster"
	tenant        = "bench"
	fleetReplicas = 2
	fleetVnodes   = 32
	fleetRingSeed = 1337
)

var (
	storeSecret = []byte("bench-store-secret")
	space       = sparksim.QuerySpace()
	engine      = sparksim.NewEngine(space)
)

// backendNode is one backend as the benchmark sees it: the server (for
// Flush), its primary store (for inspection) and its registry (for scrapes).
type backendNode struct {
	srv *backend.Server
	st  *store.DurableStore
	reg *telemetry.Registry
	// dir holds everything the node wrote; primary is the directory of its
	// primary store inside it.
	dir, primary string
}

// deployment is the system under test: one durable node or a replicated
// fleet, always behind loopback HTTP.
type deployment struct {
	nodes []backendNode
	peers map[string]string // node id -> base URL (fleet only)
	// transport carries every client's round trips to the nodes.
	transport http.RoundTripper
	closers   []func() error
}

func (d *deployment) close() error {
	var first error
	for _, c := range d.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	d.closers = nil
	return first
}

// flush blocks until every node's Model Updater has drained: after it
// returns, the model of every acknowledged event is readable.
func (d *deployment) flush() {
	for _, n := range d.nodes {
		n.srv.Flush()
	}
}

// openSingle starts one durable node wired like cmd/autotuned -data-dir:
// fsync on, DefaultCompactEvery, DefaultMaxPendingUpdates, no tenant rate
// limit, store and backend on one registry, WAL spans on the backend tracer.
func openSingle(dir string, seed uint64) (*deployment, string, error) {
	reg := telemetry.NewRegistry()
	st, err := store.OpenDurable(dir, storeSecret, store.DurableOptions{Metrics: reg})
	if err != nil {
		return nil, "", err
	}
	srv := backend.New(space, st, clusterSecret, seed)
	srv.NodeName = "bench"
	srv.SetMetrics(reg)
	st.SetTracer(srv.Tracer())
	ts := httptest.NewServer(srv.Handler())
	return &deployment{
		nodes:     []backendNode{{srv: srv, st: st, reg: reg, dir: dir, primary: dir}},
		transport: ts.Client().Transport,
		closers: []func() error{
			func() error { ts.Close(); return nil },
			func() error { srv.Close(); return nil },
			st.Close,
		},
	}, ts.URL, nil
}

// replicasOf is the replication factor of an n-node fleet: the pinned one,
// or every node when there are fewer (the 1-node fleet that
// fleet.ack_overhead_ratio compares against).
func replicasOf(n int) int {
	if n < fleetReplicas {
		return n
	}
	return fleetReplicas
}

// openFleet starts an n-node fleet through the same harness the failover
// drills use, with production store and admission defaults.
func openFleet(dir string, n int) (*deployment, error) {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	cl, err := fleettest.NewCluster(func(id string) string { return filepath.Join(dir, id) }, fleettest.ClusterOptions{
		IDs: ids, Replicas: replicasOf(n), Vnodes: fleetVnodes, Seed: fleetRingSeed,
		StoreSecret: storeSecret, ClusterSecret: clusterSecret,
	})
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{}
	d := &deployment{peers: cl.Peers, transport: tr}
	for _, id := range ids {
		node := cl.Nodes[id]
		d.nodes = append(d.nodes, backendNode{srv: node.Backend(), st: node.Store(), reg: cl.Registries[id],
			dir: filepath.Join(dir, id), primary: filepath.Join(dir, id, "primary")})
	}
	d.closers = []func() error{func() error { tr.CloseIdleConnections(); cl.Close(); return nil }}
	return d, nil
}

// shedGuard notices an admission shed the moment the client sees it: the
// client's retry policy would otherwise absorb a 429 silently, and a run
// that was shed measured the admission limit, not the loop.
type shedGuard struct{ tripped atomic.Bool }

func (g *shedGuard) onRetry(_ int, err error, _ time.Duration) {
	if resilience.StatusOf(err) == http.StatusTooManyRequests {
		g.tripped.Store(true)
	}
}

// newClient builds a client with the production resilience stack whose HTTP
// round trips are visible to ln and whose 429s trip guard.
func (d *deployment) newClient(baseURL string, creg *telemetry.Registry, ln *lane, guard *shedGuard, seed uint64) *client.Client {
	c := client.New(baseURL, clusterSecret)
	d.configure(c, creg, ln, guard, seed)
	return c
}

func (d *deployment) configure(c *client.Client, creg *telemetry.Registry, ln *lane, guard *shedGuard, seed uint64) {
	c.HTTP = &http.Client{Timeout: client.DefaultHTTPTimeout, Transport: tracedTransport{base: d.transport, lane: ln}}
	c.Metrics = creg
	c.SeedJitter(seed)
	c.Retry.OnRetry = guard.onRetry
}

// newRouter builds the fleet's shard router with every per-node client
// configured like newClient's.
func (d *deployment) newRouter(creg *telemetry.Registry, ln *lane, guard *shedGuard, seed uint64) *client.ShardRouter {
	return client.NewShardRouter(client.ShardRouterOptions{
		Peers: d.peers, Replicas: replicasOf(len(d.nodes)), Vnodes: fleetVnodes, Seed: fleetRingSeed, ClusterSecret: clusterSecret,
		Configure: func(_ string, c *client.Client) { d.configure(c, creg, ln, guard, seed) },
	})
}

// scrape is one rendered-and-reparsed registry: the same round trip
// rockmon's scrape mode performs, so the benchmark reads exactly what an
// operator's dashboard would.
type scrape []telemetry.Family

func scrapeAll(regs ...*telemetry.Registry) (scrape, error) {
	var all scrape
	for _, reg := range regs {
		fams, err := fleettest.Scrape(reg)
		if err != nil {
			return nil, err
		}
		all = append(all, fams...)
	}
	return all, nil
}

// total sums every sample named sample (a family name, or family+"_sum" /
// "_count" for histograms) whose labels include match, across all scraped
// registries.
func (s scrape) total(sample string, match map[string]string) float64 {
	family := strings.TrimSuffix(strings.TrimSuffix(sample, "_sum"), "_count")
	var sum float64
	for _, fam := range s {
		if fam.Name != family {
			continue
		}
	series:
		for _, ser := range fam.Series {
			if ser.Name != sample {
				continue
			}
			for k, v := range match {
				if ser.Labels[k] != v {
					continue series
				}
			}
			sum += ser.Value
		}
	}
	return sum
}

// registryDelta reads counters and histograms as their change over the
// timed window.
type registryDelta struct{ before, after scrape }

func (d registryDelta) count(sample string, match map[string]string) float64 {
	return d.after.total(sample, match) - d.before.total(sample, match)
}

// meanMs is a histogram's mean observation over the window, in ms. The
// registries' default buckets start at 5 ms, above most of this system's
// latencies, so a bucket-interpolated quantile would only echo the bucket
// bound; sum/count is exact.
func (d registryDelta) meanMs(hist string, match map[string]string) float64 {
	n := d.count(hist+"_count", match)
	if n == 0 {
		return 0
	}
	return d.count(hist+"_sum", match) / n * 1e3
}

func (d *deployment) registries() []*telemetry.Registry {
	regs := make([]*telemetry.Registry, len(d.nodes))
	for i, n := range d.nodes {
		regs[i] = n.reg
	}
	return regs
}

// queries returns n TPC-DS queries: suite members 1..99 from as many
// generator seeds as it takes, so plans (and signatures) differ by seed.
func queries(seed uint64, n int) []*sparksim.Query {
	out := make([]*sparksim.Query, 0, n)
	for g := uint64(0); len(out) < n; g++ {
		gen := workloads.NewGenerator(seed*1000 + g)
		for idx := 1; idx <= workloads.TPCDS.QueryCount() && len(out) < n; idx++ {
			out = append(out, gen.Query(workloads.TPCDS, idx))
		}
	}
	return out
}

// distinctQueries returns n queries whose plans have pairwise different
// signatures, so how many sessions share a signature is the workload's
// choice and not an accident of the seed.
func distinctQueries(seed uint64, n int) []*sparksim.Query {
	var out []*sparksim.Query
	seen := map[string]bool{}
	for take := 4 * n; len(out) < n; take *= 2 {
		out, seen = out[:0], map[string]bool{}
		for _, q := range queries(seed, take) {
			if sig := sparksim.Signature(q.Plan); !seen[sig] && len(out) < n {
				seen[sig] = true
				out = append(out, q)
			}
		}
	}
	return out
}

// sampleTrace is one synthetic run of q: a configuration drawn near the
// default, executed by the simulator under the paper's low-noise model.
func sampleTrace(q *sparksim.Query, signature string, rng *stats.RNG) flighting.Trace {
	cfg := space.Neighborhood(space.Default(), 0.25, 1, rng)[0]
	o := engine.Run(q, cfg, 1, rng, noise.Low)
	return flighting.Trace{QueryID: signature, Config: o.Config, DataSize: o.DataSize, TimeMs: o.Time}
}

// prefill gives each signature runs earlier runs, one event file and one
// index entry per run — the two objects /api/events commits per request —
// written through the store's group commit instead of the HTTP API, because
// each API post also queues a full retrain of the history so far.
func prefill(st *store.DurableStore, sigs []string, qs []*sparksim.Query, runs int, rng *stats.RNG) error {
	for i, sig := range sigs {
		job := fmt.Sprintf("prefill-%04d", i)
		entries := make([]store.BatchEntry, 0, 2*runs)
		for seq := 0; seq < runs; seq++ {
			var buf bytes.Buffer
			if err := flighting.WriteTraces(&buf, []flighting.Trace{sampleTrace(qs[i%len(qs)], sig, rng)}); err != nil {
				return err
			}
			entries = append(entries,
				store.BatchEntry{Path: store.EventPath(job, seq), Data: buf.Bytes()},
				store.BatchEntry{Path: fmt.Sprintf("index/%s/%s/%s-%06d", tenant, sig, job, seq)})
		}
		if err := st.PutBatch(entries); err != nil {
			return fmt.Errorf("prefill %s: %w", sig, err)
		}
	}
	return nil
}

// signatureTraces reads back a signature's whole history the way the Model
// Updater does: list its index, read and parse each event file.
func signatureTraces(st *store.DurableStore, sig string) ([]flighting.Trace, error) {
	var out []flighting.Trace
	prefix := fmt.Sprintf("index/%s/%s/", tenant, sig)
	for _, idx := range st.List(prefix) {
		rest := idx[len(prefix):]
		cut := strings.LastIndexByte(rest, '-')
		var seq int
		if _, err := fmt.Sscanf(rest[cut+1:], "%d", &seq); err != nil {
			return nil, fmt.Errorf("index entry %q: %w", idx, err)
		}
		blob, err := st.GetInternal(store.EventPath(rest[:cut], seq))
		if err != nil {
			return nil, err
		}
		ts, err := flighting.ReadTraces(bytes.NewReader(blob))
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// signatures lists every signature with an index entry, sorted.
func signatures(st *store.DurableStore) []string {
	seen := map[string]bool{}
	prefix := "index/" + tenant + "/"
	for _, p := range st.List(prefix) {
		rest := p[len(prefix):]
		seen[rest[:strings.IndexByte(rest, '/')]] = true
	}
	out := make([]string, 0, len(seen))
	for sig := range seen {
		out = append(out, sig)
	}
	sort.Strings(out)
	return out
}

// dirBytes is the size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// copyDir copies the regular files directly under src into dst: a durable
// store's directory is flat, and a copy of it taken while the store is idle
// is what a kill -9 would have left on disk.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// liveHeapMB is the heap still reachable after forced collections. One is
// not enough: a sync.Pool's contents survive a cycle in its victim cache, and
// encoding/json parks the multi-megabyte buffer of the last snapshot there,
// so whether it counted would depend on when the runtime last collected by
// itself. Measured, the reading stops falling after the third collection
// (the first may only finish a cycle already under way); four leave a margin.
func liveHeapMB() float64 {
	for i := 0; i < 4; i++ {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
