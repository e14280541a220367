// Command nwserve is the nwforest decomposition daemon: an HTTP/JSON
// front end (internal/service) over the library, with a content-addressed
// graph store, a bounded job queue feeding a worker pool, and a result
// cache so repeated identical requests never recompute.
//
// Usage:
//
//	nwserve -addr :8080 -workers 8
//
// Endpoints (see internal/service.NewHTTPHandler):
//
//	POST   /graphs            upload a graph (plain, DIMACS or METIS; auto-detected)
//	POST   /jobs              {"graph": "sha256:...", "algorithm": "decompose",
//	                           "options": {"alpha": 4, "eps": 0.5, "seed": 1}}
//	GET    /jobs/{id}         poll (?wait=5s to block), DELETE to cancel
//	GET    /jobs/{id}/events  the job's progress stream (SSE)
//	GET    /jobs/{id}/trace   the finished job's span trace (Perfetto-loadable)
//	GET    /jobs/history      terminal job records with timings and cost breakdowns
//	GET    /stats             cache hit/miss/eviction, queue and trace counters
//	GET    /metrics           Prometheus text exposition
//
// By default the daemon is purely in-memory. -data-dir enables the
// durability tier: graphs, version lineage and computed results are
// written through to disk (WAL + periodic snapshots) and recovered on
// the next start, including after a crash.
//
// -node-id and -peers turn N daemons into one fleet: a consistent-hash
// ring routes each content-addressed graph to an owner node, uploads
// replicate to the owner, jobs are answered from the owner's result
// cache or computed there, and a dead peer degrades to local compute
// instead of a client-visible error. Every node serves GET
// /cluster/stats with a gossiped fleet-wide view. See the README's
// "Cluster" section for a 3-node walkthrough.
//
// The actual listen address is printed to stdout as
// "nwserve: listening on http://HOST:PORT" (useful with -addr :0), and
// SIGINT/SIGTERM trigger a graceful drain before exit. Structured logs
// (startup recovery summary, per-request and per-job lines) go to
// stderr; -log off silences them, and -log-file redirects them to a
// size-rotated file (-log-max-size, -log-max-files). -pprof-addr serves
// Go's net/http/pprof profiling handlers on a second, private listener,
// kept off the public API address. Per-job tracing is on by default
// (-trace=false disables it); -trace-rounds N additionally samples every
// Nth simulated round into the trace as an instant event.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on the default mux, served only on -pprof-addr
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"nwforest/internal/cluster"
	"nwforest/internal/service"
	"nwforest/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for a random port)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "decomposition worker pool size")
	queue := flag.Int("queue", 256, "job queue depth (submits beyond it get 503)")
	graphCache := flag.Int("graph-cache", 64, "parsed graphs kept warm in the store LRU")
	storeBytes := flag.Int64("store-bytes", service.DefaultMaxSourceBytes, "uploaded graph bytes retained before the oldest are dropped")
	resultCache := flag.Int("result-cache", 1024, "result cache capacity in entries")
	timeout := flag.Duration("timeout", 0, "default per-job deadline (0 = none)")
	anytimeGrace := flag.Duration("anytime-grace", 0, "how long an anytime job past its deadline may take to surrender its checkpoint (0 = 5s default)")
	ingestDir := flag.String("ingest-dir", "", "directory POST /graphs {\"path\":...} may read from (empty = disabled)")
	drain := flag.Duration("drain", 15*time.Second, "graceful shutdown budget")
	dataDir := flag.String("data-dir", "", "persistence directory: WAL + snapshots + graph bytes (empty = in-memory only)")
	snapshotInterval := flag.Duration("snapshot-interval", 5*time.Minute, "how often the durability tier checkpoints and truncates its WAL")
	retention := flag.Duration("retention", 0, "age bound for persisted graph files, applied even while referenced (0 = keep while referenced)")
	diskBytes := flag.Int64("disk-bytes", 0, "persisted graph bytes retained before the oldest files are swept (0 = inherit -store-bytes, negative = unlimited)")
	logMode := flag.String("log", "text", "structured log format: text, json, or off")
	logFile := flag.String("log-file", "", "write structured logs to this file with size-based rotation instead of stderr")
	logMaxSize := flag.Int64("log-max-size", 10<<20, "rotate -log-file when it would exceed this many bytes")
	logMaxFiles := flag.Int("log-max-files", 3, "rotated -log-file copies to keep (.1 newest)")
	tracing := flag.Bool("trace", true, "record a span trace per job, served at GET /jobs/{id}/trace")
	traceRounds := flag.Int("trace-rounds", 0, "sample every Nth simulated round into traces as instant events (0 = off)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	nodeID := flag.String("node-id", "", "this node's fleet identity; enables cluster mode (requires -peers)")
	peersFlag := flag.String("peers", "", "full fleet membership incl. self: id=http://host:port,... (same value on every node)")
	gossipInterval := flag.Duration("gossip-interval", 2*time.Second, "fleet stats gossip cadence (cluster mode)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "peer health probe cadence (cluster mode)")
	flag.Parse()

	var logDst io.Writer = os.Stderr
	if *logFile != "" {
		rw, err := telemetry.NewRotatingWriter(*logFile, *logMaxSize, *logMaxFiles)
		if err != nil {
			fatal(err)
		}
		defer rw.Close()
		logDst = rw
	}
	var logger *slog.Logger
	switch *logMode {
	case "text":
		logger = slog.New(slog.NewTextHandler(logDst, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(logDst, nil))
	case "off":
	default:
		fatal(fmt.Errorf("unknown -log mode %q (want text, json or off)", *logMode))
	}

	if *pprofAddr != "" {
		// The profiling surface stays off the public listener: pprof's
		// handlers register on the default mux as a side effect of the
		// net/http/pprof import, and only this optional second server
		// ever serves that mux.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("nwserve: pprof listening on http://%s\n", pln.Addr())
		go func() {
			srv := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			if err := srv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "nwserve: pprof server:", err)
			}
		}()
	}

	svc, err := service.Open(service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		GraphCapacity:    *graphCache,
		MaxStoreBytes:    *storeBytes,
		ResultCapacity:   *resultCache,
		DefaultTimeout:   *timeout,
		AnytimeGrace:     *anytimeGrace,
		IngestDir:        *ingestDir,
		DataDir:          *dataDir,
		SnapshotInterval: *snapshotInterval,
		RetentionAge:     *retention,
		MaxDiskBytes:     *diskBytes,
		Logger:           logger,
		DisableTracing:   !*tracing,
		TraceRoundEvery:  *traceRounds,
	})
	if err != nil {
		fatal(err)
	}
	if rec := svc.Recovery(); rec.Enabled && logger != nil {
		snapshotAge := "none"
		if !rec.SnapshotAt.IsZero() {
			snapshotAge = time.Since(rec.SnapshotAt).Round(time.Second).String()
		}
		logger.Info("recovered",
			"dataDir", *dataDir,
			"graphs", rec.GraphsRecovered,
			"lineageLinks", rec.LineageLinks,
			"resultsWarmed", rec.ResultsWarmed,
			"walRecords", rec.WALRecords,
			"walTruncated", rec.WALTruncated,
			"walDiscardedBytes", rec.WALBytesDiscarded,
			"walCorruptMidLog", rec.WALCorruptMidLog,
			"snapshotAge", snapshotAge,
			"missingGraphs", rec.MissingGraphs,
			"corrupt", rec.Corrupt)
	}

	// Cluster mode: -node-id joins this process to the fleet named by
	// -peers (the same full membership list, self included, on every
	// node; the self entry carries this node's advertised address).
	// Without -node-id the daemon runs exactly as before.
	var clu *cluster.Cluster
	if *nodeID != "" {
		peers, err := cluster.ParsePeers(*peersFlag)
		if err != nil {
			fatal(err)
		}
		clu, err = cluster.New(cluster.Config{
			NodeID:         *nodeID,
			Peers:          peers,
			GossipInterval: *gossipInterval,
			HealthInterval: *healthInterval,
			Logger:         logger,
			SelfStats:      svc.StatsSummary,
			Ready:          svc.Ready,
		})
		if err != nil {
			fatal(err)
		}
		svc.AttachCluster(clu)
		fmt.Printf("nwserve: cluster node %s, %d peer(s), ring %s\n",
			*nodeID, len(peers)-1, clu.NodeInfo().RingVersion)
	} else if *peersFlag != "" {
		fatal(errors.New("-peers requires -node-id"))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("nwserve: listening on http://%s\n", ln.Addr())

	server := &http.Server{
		Handler:           service.NewHTTPHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()
	if clu != nil {
		clu.Start()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "nwserve: shutting down")
	case err := <-errCh:
		fatal(err)
	}

	// Drain first: /readyz and /peer/ping flip to 503, so load balancers
	// and fleet peers route new work elsewhere while the stages below
	// finish what is already here.
	svc.StartDrain()
	// Each shutdown stage gets its own drain budget: a long-poll client
	// exhausting the HTTP stage's budget must not leave the worker drain
	// with an already-expired context.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), *drain)
	defer cancelHTTP()
	if err := server.Shutdown(httpCtx); err != nil {
		fmt.Fprintln(os.Stderr, "nwserve: http shutdown:", err)
	}
	if clu != nil {
		clu.Stop()
	}
	svcCtx, cancelSvc := context.WithTimeout(context.Background(), *drain)
	defer cancelSvc()
	if err := svc.Close(svcCtx); err != nil {
		fmt.Fprintln(os.Stderr, "nwserve:", err)
		os.Exit(1)
	}
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "nwserve:", err)
	os.Exit(1)
}
