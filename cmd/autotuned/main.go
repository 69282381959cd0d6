// Command autotuned runs the Autotune Backend (Section 5, Figure 7) as a
// standalone HTTP daemon: token issuing, model storage, event ingestion with
// streaming model retraining, and app-cache generation. Autotune Clients
// (internal/client) point at its address.
//
// Usage:
//
//	autotuned [-addr :8080] [-secret cluster-secret] [-space query|full]
//	          [-retention 720h] [-request-timeout 15s]
//	          [-data-dir /var/lib/autotuned]
//
// With -data-dir the object store is durable: every mutation is written to
// a CRC-framed write-ahead log before it is acknowledged, the log is
// compacted into an atomic snapshot once it has grown and after every
// retention sweep (so reaped event files leave the disk, on every replica),
// and a restart with the same directory replays snapshot + WAL so
// previously trained models survive without retraining. Without it the
// store is memory-only and state dies with the process.
//
// Fleet mode shards the backend across several daemons:
//
//	autotuned -node-id a -peers a=http://h1:8080,b=http://h2:8080,c=http://h3:8080 \
//	          -replicas 2 -data-dir /var/lib/autotuned-a ...
//
// Every node must be started with the same -peers, -replicas, -vnodes, and
// -ring-seed. Each node owns the signatures the consistent-hash ring maps
// to it, bounces misrouted writes with 421 + the owner's address, ships its
// WAL to follower replicas before acknowledging ingest, and heartbeats the
// owners it follows so a dead node's shard fails over to its replica.
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests drain, the
// model-updater queue flushes, and the durable store takes a final snapshot.
//
// Liveness and per-endpoint error accounting are exposed unauthenticated at
// GET /api/health; Prometheus text metrics (request latencies, WAL timings,
// updater queue depth, tuner gauges) at GET /metrics; the recent span ring
// at GET /api/trace (sized by -trace-ring, filterable with ?trace=<id>);
// and the flight-recorder event ring at GET /api/flightrec. -slo-latency
// arms the black box: a request over the objective snapshots the recorder
// to -data-dir. -debug-addr opens a separate net/http/pprof listener for
// profiling (off by default).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/fleet"
	"github.com/rockhopper-db/rockhopper/internal/flightrec"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// objectStore is the daemon's storage surface: the backend interface plus
// the retention sweep. Both store implementations satisfy it.
type objectStore interface {
	backend.ObjectStore
	CleanupOlderThan(retention time.Duration) int
}

// shutdownGrace bounds how long in-flight requests may drain on SIGTERM.
const shutdownGrace = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	secret := flag.String("secret", "", "cluster shared secret (required)")
	spaceName := flag.String("space", "query", "configuration space: query (3 params) or full (7 params)")
	retention := flag.Duration("retention", 30*24*time.Hour, "event-file retention window (GDPR cleanup)")
	signingKey := flag.String("signing-key", "", "token signing key (required)")
	reqTimeout := flag.Duration("request-timeout", backend.DefaultRequestTimeout,
		"per-request handler deadline (0 disables)")
	dataDir := flag.String("data-dir", "",
		"durable store directory (snapshot + WAL); empty keeps the store in memory only")
	tenantRate := flag.Float64("tenant-rate", 0,
		"per-tenant ingest rate limit in events/second (0 disables rate limiting)")
	tenantBurst := flag.Float64("tenant-burst", 0,
		"per-tenant token-bucket burst capacity (0 means the default)")
	tenantWeights := flag.String("tenant-weights", "",
		"comma-separated tenant=weight pairs for Model Updater fair scheduling, e.g. etl=4,adhoc=1")
	nodeID := flag.String("node-id", "",
		"this node's fleet identity; setting it enables sharded fleet mode (requires -peers and -data-dir)")
	peersFlag := flag.String("peers", "",
		"comma-separated id=url pairs for every fleet node including this one, e.g. a=http://h1:8080,b=http://h2:8080")
	replicas := flag.Int("replicas", 2,
		"fleet replica-set size per shard, including the owner")
	vnodes := flag.Int("vnodes", 0,
		"virtual nodes per fleet member on the hash ring (0 means the default)")
	ringSeed := flag.Uint64("ring-seed", 1,
		"hash-ring placement seed; must match on every node and client")
	heartbeat := flag.Duration("heartbeat", 5*time.Second,
		"fleet peer heartbeat interval (0 disables failure detection)")
	traceRing := flag.Int("trace-ring", backend.DefaultTraceRingSpans,
		"spans retained in the /api/trace ring (rockhopper_trace_spans_evicted_total counts overflow)")
	debugAddr := flag.String("debug-addr", "",
		"separate listener for net/http/pprof profiling endpoints (empty disables; never expose publicly)")
	sloLatency := flag.Duration("slo-latency", 0,
		"per-request latency objective; a breach dumps the flight recorder to -data-dir (0 disables)")
	flightEvents := flag.Int("flightrec-events", 512,
		"events retained in the flight-recorder ring served at /api/flightrec (0 disables)")
	flag.Parse()

	if *secret == "" || *signingKey == "" {
		fmt.Fprintln(os.Stderr, "autotuned: -secret and -signing-key are required")
		os.Exit(2)
	}
	var space *sparksim.Space
	switch *spaceName {
	case "query":
		space = sparksim.QuerySpace()
	case "full":
		space = sparksim.FullSpace()
	default:
		fmt.Fprintf(os.Stderr, "autotuned: unknown space %q\n", *spaceName)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "autotuned: ", log.LstdFlags)
	recNode := *nodeID
	if recNode == "" {
		recNode = "autotuned"
	}
	//rocklint:allow wallclock -- the flight recorder timestamps operational events, not tuning state
	flightRec := flightrec.New(*flightEvents, recNode, *dataDir, time.Now)
	flightRec.OnDump(func(reason, path string) {
		logger.Printf("flight recorder dumped (%s) to %s", reason, path)
	})
	var st objectStore
	var durable *store.DurableStore
	var srv *backend.Server
	var node *fleet.Node
	var handler http.Handler
	if *nodeID != "" {
		if *peersFlag == "" || *dataDir == "" {
			fmt.Fprintln(os.Stderr, "autotuned: fleet mode (-node-id) requires -peers and -data-dir")
			os.Exit(2)
		}
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "autotuned: %v\n", err)
			os.Exit(2)
		}
		if _, ok := peers[*nodeID]; !ok {
			fmt.Fprintf(os.Stderr, "autotuned: -node-id %q is not listed in -peers\n", *nodeID)
			os.Exit(2)
		}
		n, err := fleet.NewNode(fleet.NodeOptions{
			ID:                *nodeID,
			Peers:             peers,
			Replicas:          *replicas,
			Vnodes:            *vnodes,
			Seed:              *ringSeed,
			Space:             space,
			DataDir:           *dataDir,
			StoreSecret:       []byte(*signingKey),
			ClusterSecret:     *secret,
			Metrics:           telemetry.Default(),
			Logger:            logger,
			HeartbeatInterval: *heartbeat,
			TraceRingSpans:    *traceRing,
			SLOLatency:        *sloLatency,
			FlightRecorder:    flightRec,
		})
		if err != nil {
			logger.Fatal(err)
		}
		node, srv = n, n.Backend()
		st, durable = n.Store(), n.Store()
		handler = n.Handler()
		logger.Printf("fleet node %s: %d peers, replicas=%d, vnodes=%d, ring-seed=%d, heartbeat=%v (%d objects recovered)",
			*nodeID, len(peers), *replicas, *vnodes, *ringSeed, *heartbeat, n.Store().Len())
	} else {
		if *dataDir != "" {
			ds, err := store.OpenDurable(*dataDir, []byte(*signingKey), store.DurableOptions{
				Logger:  logger,
				Metrics: telemetry.Default(),
			})
			if err != nil {
				logger.Fatal(err)
			}
			logger.Printf("durable store open at %s (%d objects recovered)", *dataDir, ds.Len())
			st, durable = ds, ds
		} else {
			st = store.New([]byte(*signingKey))
		}
		//rocklint:allow wallclock -- daemon startup entropy for the backend seed; not an experiment path
		srv = backend.New(space, st, *secret, uint64(time.Now().UnixNano()))
		// Identity, ring sizing, and the SLO check must land before
		// SetMetrics: bindTelemetry bakes them into the tracer it builds.
		srv.NodeName = recNode
		srv.TraceRingSpans = *traceRing
		srv.SLOLatency = *sloLatency
		// Publish on the process-global registry so the store's durability
		// instruments and the backend's request accounting share one
		// /metrics. (Fleet nodes wire the registry through NodeOptions.)
		srv.SetMetrics(telemetry.Default())
		srv.SetFlightRecorder(flightRec)
		if durable != nil {
			durable.SetTracer(srv.Tracer())
		}
		handler = srv.Handler()
	}
	srv.Logger = logger
	srv.RequestTimeout = *reqTimeout
	srv.TenantRate = *tenantRate
	srv.TenantBurst = *tenantBurst
	if *tenantWeights != "" {
		for _, pair := range strings.Split(*tenantWeights, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
			w, err := strconv.Atoi(val)
			if !ok || name == "" || err != nil || w < 1 {
				fmt.Fprintf(os.Stderr, "autotuned: bad -tenant-weights entry %q (want tenant=weight, weight >= 1)\n", pair)
				os.Exit(2)
			}
			srv.SetTenantWeight(name, w)
		}
	}

	// Profiling listener: explicit pprof mux on its own address, never on
	// the service listener, so operators opt in and firewalls can fence it.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		//rocklint:allow goroutineleak -- the debug listener is process-lifetime by design: it serves pprof until the daemon exits and dies with it
		go func() {
			logger.Printf("pprof debug listener on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logger.Printf("debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if node != nil {
		node.Start(ctx)
	}

	// Storage Manager housekeeping: the retention sweep, which compacts the
	// durable store itself.
	go func() {
		//rocklint:allow wallclock -- housekeeping cadence is operational wall time, not tuning state
		tick := time.NewTicker(time.Hour)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				// A latched durability failure means acknowledged writes can
				// no longer be persisted; crash so the supervisor restarts us
				// into recovery instead of serving from a diverging store.
				// (/api/health reports it as "down" in the meantime.)
				if durable != nil {
					if err := durable.Err(); err != nil && !errors.Is(err, store.ErrClosed) {
						logger.Fatalf("durable store is down: %v", err)
					}
				}
				if n := st.CleanupOlderThan(*retention); n > 0 {
					logger.Printf("retention cleanup removed %d event files", n)
				}
			}
		}
	}()

	hs := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		<-ctx.Done()
		logger.Print("shutting down (draining requests)")
		shCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}()

	logger.Printf("listening on %s (space=%s, retention=%v, request-timeout=%v, health at /api/health, metrics at /metrics)",
		*addr, *spaceName, *retention, *reqTimeout)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	// Drain the model updater before the final snapshot so the flush
	// captures every retrained model.
	if node != nil {
		if err := node.Close(); err != nil {
			logger.Printf("fleet node close: %v", err)
		} else {
			logger.Print("fleet node flushed")
		}
		return
	}
	srv.Close()
	if durable != nil {
		if err := durable.Close(); err != nil {
			logger.Printf("durable store close: %v", err)
		} else {
			logger.Print("durable store flushed")
		}
	}
}

// parsePeers parses the -peers flag: comma-separated id=url pairs.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", pair)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate node id %q in -peers", id)
		}
		peers[id] = url
	}
	return peers, nil
}
