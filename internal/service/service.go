// Package service is the serving subsystem behind cmd/nwserve: a
// long-lived, concurrent front end to the nwforest library. It layers
//
//   - a Store that ingests graphs (uploads or server-side files),
//     content-addresses them by SHA-256, and keeps parsed graphs warm in
//     an LRU;
//   - a job system — a bounded queue feeding a worker pool — that runs
//     any public entry point with a per-job context, cancellation and
//     deadline, returning job IDs that clients poll or wait on;
//   - a result cache keyed by (graph hash, algorithm, canonical Options
//     key), so a repeated identical request is served without
//     recomputation; all algorithms are deterministic given Options.Seed,
//     so cold and cached paths return bit-identical results.
//
// The HTTP surface over this API lives in http.go; cmd/nwserve is a thin
// main around the two.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nwforest"
	"nwforest/internal/algo"
	"nwforest/internal/cluster"
	"nwforest/internal/dist"
	"nwforest/internal/dynamic"
	"nwforest/internal/graph"
	"nwforest/internal/persist"
	"nwforest/internal/telemetry"
	"nwforest/internal/trace"
	"nwforest/internal/verify"
)

// Config sizes a Service. The zero value gets sensible defaults.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker
	// (default 256). Submit fails with ErrQueueFull beyond it.
	QueueDepth int
	// GraphCapacity is how many parsed graphs the store keeps warm
	// (default 64).
	GraphCapacity int
	// MaxStoreBytes bounds the raw bytes of upload-backed graphs the
	// store retains for re-parsing; oldest uploads are forgotten beyond
	// it (default service.DefaultMaxSourceBytes).
	MaxStoreBytes int64
	// IngestDir, when non-empty, permits POST /graphs {"path": ...} to
	// ingest files from (strictly within) that directory. Empty disables
	// server-side file ingestion entirely — otherwise the endpoint would
	// let any HTTP client probe and partially read the server's
	// filesystem.
	IngestDir string
	// ResultCapacity is the result cache size in entries (default 1024).
	ResultCapacity int
	// ResultCacheBytes bounds the result cache's approximate resident
	// bytes — results carry per-edge slices, so entries alone are not a
	// memory bound (default service.DefaultMaxCacheBytes). The same
	// budget bounds the results pinned by retained finished jobs.
	ResultCacheBytes int64
	// RetainJobs bounds how many finished jobs stay pollable before the
	// oldest are forgotten (default 1024).
	RetainJobs int
	// DefaultTimeout applies to jobs that do not set TimeoutMillis
	// (default 0 = no deadline).
	DefaultTimeout time.Duration
	// AnytimeGrace bounds how long a worker waits, after an anytime job's
	// deadline fires, for the algorithm to surface its best checkpoint
	// (the run aborts at the next per-round or per-cluster context check,
	// so the wait is normally milliseconds; the grace only matters inside
	// the few non-preemptible stretches). Beyond it the job is canceled
	// like a non-anytime job (default 5s).
	AnytimeGrace time.Duration
	// DataDir, when non-empty, enables the durability tier
	// (internal/persist): every ingested graph and computed result is
	// written through to this directory before the request is
	// acknowledged, and Open recovers the store, version lineage and
	// result cache from it on restart. Empty (the default) keeps the
	// service purely in-memory.
	DataDir string
	// SnapshotInterval is how often the durability tier checkpoints its
	// state and truncates the WAL (default 5m; < 0 disables the periodic
	// loop, leaving only the final snapshot on Close). Ignored without
	// DataDir.
	SnapshotInterval time.Duration
	// RetentionAge, when > 0, lets snapshot-time sweeps delete persisted
	// graph files older than this even if still referenced; 0 keeps
	// referenced files indefinitely. Unreferenced files and the disk
	// byte budget (MaxDiskBytes) are always enforced. A referenced graph
	// whose file is swept keeps serving from memory but loses durability
	// until identical bytes are uploaded again.
	RetentionAge time.Duration
	// MaxDiskBytes bounds the total bytes of persisted graph files;
	// snapshot-time sweeps delete the oldest files beyond it, even while
	// still referenced. 0 (the default) inherits MaxStoreBytes so disk
	// roughly tracks the in-memory upload budget; < 0 disables the disk
	// byte bound entirely. Ignored without DataDir.
	MaxDiskBytes int64
	// Logger, when non-nil, receives structured request and job logs and
	// the persistence tier's error reports. Nil disables logging.
	Logger *slog.Logger
	// DisableTracing turns the per-job span recorder off entirely: no
	// recorder is allocated, the dist charge sites pay one nil check,
	// and GET /jobs/{id}/trace returns 404. The default (false) records
	// a trace for every job.
	DisableTracing bool
	// TraceRoundEvery samples individual simulated rounds into traces
	// as instant events: every Nth round of every simulated protocol run
	// (0, the default, records no round events — phase spans only).
	TraceRoundEvery int
	// TraceCapacity / TraceMaxBytes bound the ring of finished traces
	// (defaults 512 entries / 8 MiB); the oldest traces are evicted
	// beyond either budget.
	TraceCapacity int
	TraceMaxBytes int64
	// HistoryCapacity / HistoryMaxBytes bound the terminal-job history
	// served by GET /jobs/history (defaults 4096 entries / 8 MiB).
	HistoryCapacity int
	HistoryMaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.GraphCapacity <= 0 {
		c.GraphCapacity = 64
	}
	if c.ResultCapacity <= 0 {
		c.ResultCapacity = 1024
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 5 * time.Minute
	}
	if c.AnytimeGrace <= 0 {
		c.AnytimeGrace = 5 * time.Second
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = 512
	}
	if c.TraceMaxBytes <= 0 {
		c.TraceMaxBytes = 8 << 20
	}
	if c.HistoryCapacity <= 0 {
		c.HistoryCapacity = 4096
	}
	if c.HistoryMaxBytes <= 0 {
		c.HistoryMaxBytes = 8 << 20
	}
	return c
}

// ErrQueueFull is returned by Submit when the job queue is at capacity;
// HTTP maps it to 503 so clients can back off and retry.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("service: shutting down")

// ErrUnknownGraph is returned by Submit for graph IDs the store has never
// ingested; HTTP maps it to 404.
var ErrUnknownGraph = errors.New("service: unknown graph")

// Algorithms lists the job algorithm names in the registry's stable
// registration order.
var Algorithms = algo.Names()

// AlgorithmInfo is one GET /algorithms entry: the registry metadata a
// client needs to discover the job surface instead of guessing it.
type AlgorithmInfo struct {
	Name string `json:"name"`
	// Summary is a one-line human description.
	Summary string `json:"summary"`
	// Required lists the request fields a valid job must set, in JSON
	// spelling; alternatives are joined with "|".
	Required []string `json:"required,omitempty"`
	// Capabilities are the descriptor's flags (seed/palette/alphaStar
	// usage, incremental support, output shape).
	Capabilities algo.Capabilities `json:"capabilities"`
}

// AlgorithmInfos returns the registry metadata served by GET /algorithms.
func AlgorithmInfos() []AlgorithmInfo {
	ds := algo.All()
	out := make([]AlgorithmInfo, len(ds))
	for i, d := range ds {
		out[i] = AlgorithmInfo{
			Name:         d.Name,
			Summary:      d.Summary,
			Required:     d.Required,
			Capabilities: d.Caps,
		}
	}
	return out
}

// Service is the serving subsystem. Create with Open (or New when
// persistence is off), stop with Close.
type Service struct {
	cfg   Config
	store *Store
	cache *resultCache

	// persistLog is the durability tier (nil when Config.DataDir is
	// empty); recovery describes what Open reconstructed from it.
	persistLog *persist.Log
	recovery   RecoveryInfo
	logger     *slog.Logger

	metrics      *telemetry.Registry
	jobDurations *telemetry.HistogramVec
	phaseSelf    *telemetry.HistogramVec
	// statSnap is the Stats snapshot the /metrics collectors read; the
	// registry's Prepare hook refreshes it once per scrape so a single
	// exposition is internally consistent.
	statSnap atomic.Pointer[Stats]

	// traces retains finished jobs' span timelines (GET /jobs/{id}/trace);
	// history retains terminal job records (GET /jobs/history). Both are
	// bounded rings independent of job retention.
	traces  *trace.Ring
	history *jobHistory

	baseCtx  context.Context
	stop     context.CancelFunc
	queue    chan *Job
	wg       sync.WaitGroup
	snapStop chan struct{} // stops the periodic snapshot loop
	snapDone chan struct{} // closed when the loop has exited

	mu            sync.Mutex
	closed        bool
	nextID        int64
	jobs          map[string]*Job
	inflight      map[string]*Job // CacheKey -> running/queued leader job
	followers     int             // live follower jobs, capped at QueueDepth
	finished      []finishedRec   // finish order, for retention pruning
	retainedBytes int64
	dedups        int64

	// anytimeJobs counts accepted anytime-mode submissions;
	// anytimePartials counts deadline-interrupted jobs that served a
	// checkpoint. Atomics: partials are bumped on worker goroutines.
	anytimeJobs     atomic.Int64
	anytimePartials atomic.Int64

	// execHook replaces algorithm execution in tests (e.g. to block until
	// cancellation); nil in production.
	execHook func(ctx context.Context, g *graph.Graph, spec JobSpec) (*JobResult, error)

	// cluster joins this node to a fleet (AttachCluster); nil in
	// single-node mode, which keeps every request path exactly as
	// before. draining flips /readyz (and the peer ping) to 503 ahead
	// of shutdown; peerCtr tracks the peer protocol's activity.
	cluster  *cluster.Cluster
	draining atomic.Bool
	peerCtr  peerCounters
}

// Open starts a Service. When cfg.DataDir is set it first recovers the
// graph store, version lineage and result cache from disk (see
// Recovery for what was found) and turns on write-through durability
// for everything ingested or computed afterwards.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:      cfg,
		store:    NewStore(cfg.GraphCapacity, cfg.MaxStoreBytes),
		cache:    newResultCache(cfg.ResultCapacity, cfg.ResultCacheBytes),
		logger:   cfg.Logger,
		baseCtx:  ctx,
		stop:     cancel,
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		history:  newJobHistory(cfg.HistoryCapacity, cfg.HistoryMaxBytes),
	}
	if !cfg.DisableTracing {
		s.traces = trace.NewRing(cfg.TraceCapacity, cfg.TraceMaxBytes)
	}
	if cfg.DataDir != "" {
		if err := s.openPersistence(); err != nil {
			cancel()
			return nil, err
		}
	}
	s.initMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.persistLog != nil && cfg.SnapshotInterval > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(cfg.SnapshotInterval)
	}
	return s, nil
}

// RecoveryInfo describes what Open reconstructed from Config.DataDir.
type RecoveryInfo struct {
	// Enabled reports that the durability tier is on at all.
	Enabled bool `json:"enabled"`
	// GraphsRecovered counts graphs re-ingested from disk; LineageLinks
	// counts how many of them carry a parent version link.
	GraphsRecovered int `json:"graphsRecovered"`
	LineageLinks    int `json:"lineageLinks"`
	// ResultsWarmed counts cached results restored into the result cache.
	ResultsWarmed int `json:"resultsWarmed"`
	// WALRecords counts intact WAL records replayed; WALTruncated reports
	// that a damaged record was cut from the WAL along with everything
	// after it, and WALBytesDiscarded is how many bytes that dropped.
	WALRecords        int   `json:"walRecords"`
	WALTruncated      bool  `json:"walTruncated"`
	WALBytesDiscarded int64 `json:"walBytesDiscarded,omitempty"`
	// WALCorruptMidLog distinguishes the damage: false means a torn tail
	// (the only artifact a crash mid-append leaves), true means intact
	// records existed past the damage point — mid-log corruption whose
	// discarded records were real acknowledged data.
	WALCorruptMidLog bool `json:"walCorruptMidLog,omitempty"`
	// SnapshotAt is the recovered snapshot's save time (zero if none).
	SnapshotAt time.Time `json:"snapshotAt,omitempty"`
	// MissingGraphs counts records whose data file was gone (retention
	// sweeps); Corrupt counts records whose bytes failed content-address
	// verification or re-parsing and were dropped.
	MissingGraphs int `json:"missingGraphs"`
	Corrupt       int `json:"corrupt"`
}

// Recovery returns what Open reconstructed from disk; the zero value
// (Enabled false) means persistence is off.
func (s *Service) Recovery() RecoveryInfo { return s.recovery }

// openPersistence opens cfg.DataDir, replays its state into the store
// and result cache, and attaches write-through persistence. Every
// recovered graph is re-verified against its content address before it
// is served again.
func (s *Service) openPersistence() error {
	log, err := persist.Open(s.cfg.DataDir)
	if err != nil {
		return err
	}
	rec, err := log.Recover()
	if err != nil {
		log.Close()
		return err
	}
	info := RecoveryInfo{
		Enabled:           true,
		WALRecords:        rec.WALRecords,
		WALTruncated:      rec.WALTruncated,
		WALBytesDiscarded: rec.WALBytesDiscarded,
		WALCorruptMidLog:  rec.WALCorruptMidLog,
		SnapshotAt:        rec.SnapshotAt,
		MissingGraphs:     rec.MissingGraphs,
	}
	if rec.WALCorruptMidLog && s.logger != nil {
		// A torn tail is the expected crash artifact; intact records past
		// the damage mean the discarded suffix was real acked data.
		s.logger.Error("WAL corrupt mid-log: acknowledged records were discarded",
			"discardedBytes", rec.WALBytesDiscarded)
	}
	var recoveredIDs []string
	for _, g := range rec.Graphs {
		if hashID(graph.Format(g.Format), g.Data) != g.ID {
			info.Corrupt++
			continue
		}
		var mut *Mutation
		if len(g.Mutation) > 0 {
			mut = new(Mutation)
			if err := json.Unmarshal(g.Mutation, mut); err != nil {
				mut = nil
			}
		}
		// Re-ingest through the normal path (pre-attach, so nothing is
		// re-persisted): the graph is re-parsed, warmed, and the upload
		// budget is enforced in original ingest order.
		added, err := s.store.add(g.Data, graph.Format(g.Format), nil, "", g.Parent, mut)
		if err != nil {
			info.Corrupt++
			continue
		}
		info.GraphsRecovered++
		recoveredIDs = append(recoveredIDs, added.ID)
		if added.Parent != "" {
			info.LineageLinks++
		}
	}
	for _, r := range rec.Results {
		gid, _, ok := strings.Cut(r.Key, "|")
		if !ok {
			continue
		}
		if _, known := s.store.Info(gid); !known {
			continue // its graph aged out; a dangling result would never hit
		}
		res := new(JobResult)
		if err := json.Unmarshal(r.Value, res); err != nil {
			continue
		}
		s.cache.put(r.Key, res)
		info.ResultsWarmed++
	}
	s.store.attachPersist(log)
	// Recovered graphs are durable by construction (their bytes and
	// records are what recovery just read); mark them so an identical
	// re-upload skips the write-through.
	s.store.markPersisted(recoveredIDs)
	s.persistLog = log
	s.recovery = info
	return nil
}

// snapshotLoop checkpoints the durability tier every interval until
// Close stops it.
func (s *Service) snapshotLoop(interval time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.SnapshotNow(); err != nil && s.logger != nil {
				s.logger.Error("snapshot failed", "err", err)
			}
		case <-s.snapStop:
			return
		}
	}
}

// SnapshotNow checkpoints the durability tier immediately. The whole
// sequence — capturing the store's graph metadata and the result cache,
// writing them as a durable snapshot, truncating the WAL, and sweeping
// graph files that are no longer referenced, too old
// (Config.RetentionAge), or beyond the disk byte budget
// (Config.MaxDiskBytes) — runs under persist.Log's append barrier, so a
// graph or result acked concurrently lands in either the snapshot or
// the fresh WAL, never in neither. Entries whose files the sweep
// removed are marked non-durable so an identical re-upload persists
// them again. It errors when persistence is not enabled.
func (s *Service) SnapshotNow() error {
	if s.persistLog == nil {
		return errors.New("service: persistence not enabled")
	}
	maxBytes := s.cfg.MaxDiskBytes
	switch {
	case maxBytes == 0:
		maxBytes = s.cfg.MaxStoreBytes
		if maxBytes <= 0 {
			maxBytes = DefaultMaxSourceBytes
		}
	case maxBytes < 0:
		maxBytes = 0 // persist treats 0 as "no byte bound"
	}
	_, err := s.persistLog.Checkpoint(func() ([]persist.GraphMeta, []persist.ResultRecord) {
		return s.store.exportPersist(), s.cache.export()
	}, s.cfg.RetentionAge, maxBytes, s.store.markUnpersisted)
	return err
}

// Store exposes the graph store for ingestion.
func (s *Service) Store() *Store { return s.store }

// ErrIngestForbidden is returned by ResolveIngestPath for paths outside
// the configured ingest directory (or when none is configured); HTTP
// maps it to 403.
var ErrIngestForbidden = errors.New("service: server-side file ingestion not permitted")

// ResolveIngestPath validates a client-supplied server-side path:
// ingestion must be enabled (Config.IngestDir) and the path, interpreted
// relative to that directory, must not escape it. It returns the
// absolute path to read. Symlinks inside the ingest directory are the
// operator's responsibility — the directory's contents are trusted, the
// client's path string is not.
func (s *Service) ResolveIngestPath(p string) (string, error) {
	if s.cfg.IngestDir == "" {
		return "", fmt.Errorf("%w: no ingest directory configured", ErrIngestForbidden)
	}
	base, err := filepath.Abs(s.cfg.IngestDir)
	if err != nil {
		return "", err
	}
	abs := filepath.Clean(filepath.Join(base, p))
	rel, err := filepath.Rel(base, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("%w: %q escapes the ingest directory", ErrIngestForbidden, p)
	}
	return abs, nil
}

// Submit validates spec, consults the result cache, and either returns a
// job that is already done (cache hit — no recomputation, no queue slot)
// or enqueues the work. It fails fast on unknown graphs and algorithms
// and returns ErrQueueFull when the queue is at capacity. In cluster
// mode an unknown graph is first looked for on peers (read-through
// graph fill), and eligible jobs may be answered from or computed on
// their ring owner at execution time.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	return s.submit(spec, false)
}

// SubmitLocal is Submit for peer-forwarded jobs: the job is pinned to
// this node — it never consults peer caches or forwards again, so a
// forwarded job takes exactly one hop before being computed.
func (s *Service) SubmitLocal(spec JobSpec) (*Job, error) {
	return s.submit(spec, true)
}

func (s *Service) submit(spec JobSpec, localOnly bool) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if _, ok := s.store.Info(spec.GraphID); !ok {
		if !s.ensureGraph(spec.GraphID) {
			return nil, fmt.Errorf("%w %q", ErrUnknownGraph, spec.GraphID)
		}
	}

	now := time.Now()
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMillis > 0 {
		timeout = time.Duration(spec.TimeoutMillis) * time.Millisecond
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	j := &Job{
		spec:      spec,
		state:     JobQueued,
		created:   now,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		hub:       newEventHub(),
		localOnly: localOnly,
		settle:    s.pruneFinished,
	}
	j.hub.publish(JobEvent{Type: "state", State: JobQueued})

	// The cache is consulted under the complete-result key even for
	// anytime jobs: a complete result always satisfies an anytime request,
	// while cached partials (keyed with their quality bound) are never
	// served in place of a fresh run.
	if res, ok := s.cache.get(spec.CacheKey()); ok {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			cancel()
			return nil, ErrClosed
		}
		s.register(j)
		s.mu.Unlock()
		j.finish(now, JobDone, res, "", true)
		return j, nil
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	// In-flight deduplication: an identical computation already queued or
	// running makes this job a follower — it gets its own ID, deadline
	// and cancel, consumes no queue slot, and completes from the leader's
	// outcome instead of recomputing. Followers are still backpressured:
	// each costs a Job plus two goroutines, so without a cap a client
	// hammering one slow computation could pile them up without ever
	// seeing a 503. Anytime and non-anytime jobs dedup separately
	// (inflightKey), since their deadline outcomes differ.
	key := spec.inflightKey()
	if leader, ok := s.inflight[key]; ok && !leader.State().terminal() {
		if s.followers >= s.cfg.QueueDepth {
			s.mu.Unlock()
			cancel()
			return nil, ErrQueueFull
		}
		j.follower = true
		s.followers++
		s.register(j)
		s.dedups++
		s.mu.Unlock()
		s.watch(j)
		go s.follow(j, leader)
		return j, nil
	}
	// Register before enqueueing: a worker may pop the job the instant it
	// lands in the channel, and must find its ID already assigned.
	s.register(j)
	s.inflight[key] = j
	select {
	case s.queue <- j:
		s.mu.Unlock()
		s.watch(j)
		return j, nil
	default:
		delete(s.jobs, j.id)
		if s.inflight[key] == j {
			delete(s.inflight, key)
		}
		s.mu.Unlock()
		cancel()
		return nil, ErrQueueFull
	}
}

// follow completes a deduplicated follower job from its leader's
// outcome: a successful leader result is shared (flagged cached), a
// failure is deterministic and shared too, and a canceled leader cancels
// the follower rather than silently re-running the work. The follower's
// own cancellation or deadline wins if it fires first.
func (s *Service) follow(j, leader *Job) {
	select {
	case <-leader.Done():
	case <-j.done:
		return // follower canceled/expired first; its watcher handled it
	}
	snap := leader.Snapshot()
	switch snap.State {
	case JobDone:
		j.finish(time.Now(), JobDone, snap.Result, "", true)
	case JobFailed:
		j.finish(time.Now(), JobFailed, nil, snap.Error, true)
	default: // canceled
		j.finish(time.Now(), JobCanceled, nil,
			"deduplicated onto job "+leader.ID()+", which was canceled", false)
	}
}

// watch moves a job to JobCanceled as soon as its context expires — even
// while it still sits in the queue, so deadlines are reflected promptly
// rather than at the next worker pop. The goroutine exits when the job
// reaches a terminal state by any path.
//
// A running anytime leader is exempt: its deadline belongs to runJob,
// which waits (up to Config.AnytimeGrace) for the algorithm's best
// checkpoint and completes the job with a partial result. Anytime jobs
// still waiting in the queue have no checkpoint to serve and are
// canceled like any other; so are anytime followers, whose leader owns
// the computation.
func (s *Service) watch(j *Job) {
	go func() {
		select {
		case <-j.ctx.Done():
			if j.spec.Anytime && !j.follower {
				j.cancelIfQueued(time.Now(), j.ctx.Err().Error())
				return
			}
			j.finish(time.Now(), JobCanceled, nil, j.ctx.Err().Error(), false)
		case <-j.done:
		}
	}()
}

// register assigns an ID and indexes the job; the caller holds s.mu.
// The span recorder is created here — the ID it carries is the trace
// ring's key, and registration is the first moment the ID exists.
func (s *Service) register(j *Job) {
	s.nextID++
	j.id = "j-" + strconv.FormatInt(s.nextID, 10)
	if s.traces != nil {
		j.rec = trace.NewRecorder(j.id, j.created, s.cfg.TraceRoundEvery)
		j.hub.rec = j.rec
	}
	if j.spec.Anytime {
		s.anytimeJobs.Add(1)
	}
	s.jobs[j.id] = j
}

// Get returns the job with the given ID, if it is still retained.
func (s *Service) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Wait blocks until the job reaches a terminal state or ctx expires, and
// returns its then-current snapshot.
func (s *Service) Wait(ctx context.Context, j *Job) JobSnapshot {
	select {
	case <-j.Done():
	case <-ctx.Done():
	}
	return j.Snapshot()
}

// Cancel cancels the job with the given ID; it reports false if the job
// is unknown or already terminal.
func (s *Service) Cancel(id string) bool {
	j, ok := s.Get(id)
	if !ok {
		return false
	}
	return j.Cancel("canceled by client")
}

// Jobs returns snapshots of every retained job, oldest first.
func (s *Service) Jobs() []JobSnapshot {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].created.Before(jobs[k].created) })
	out := make([]JobSnapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// worker drains the queue until Close closes it.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job. The job's context is threaded down into the
// algorithm, so a cancellation or deadline interrupts the decomposition
// mid-phase (the H-partition peel checks it every simulated round,
// Algorithm 2 every cluster). The algorithm
// still runs in its own goroutine so the worker is released immediately
// even for the few centralized reference computations that are not
// preemptible; an abandoned computation of that kind finishes in the
// background and its result is discarded.
func (s *Service) runJob(j *Job) {
	if err := j.ctx.Err(); err != nil {
		j.finish(time.Now(), JobCanceled, nil, err.Error(), false)
		return
	}
	started := time.Now()
	if !j.tryStart(started) {
		return // canceled while queued; whoever finished it settled it
	}
	type outcome struct {
		res *JobResult
		err error
	}
	ch := make(chan outcome, 1)
	// The job's event hub rides down into the algorithm as the cost
	// account's observer, so SSE subscribers see phases and rounds as
	// they are charged; the hub forwards the same charge stream to the
	// span recorder, which turns it into phase spans.
	j.rec.BeginExecution(started)
	execCtx := dist.WithObserver(j.ctx, j.hub)
	go func() {
		defer func() {
			// A panicking algorithm must fail its job, not kill the daemon.
			if r := recover(); r != nil {
				ch <- outcome{nil, fmt.Errorf("service: algorithm panicked: %v", r)}
			}
		}()
		res, err := s.execute(execCtx, j)
		ch <- outcome{res, err}
	}()
	handle := func(out outcome) {
		switch {
		case out.err != nil && (errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded)):
			// The algorithm observed the job context and aborted mid-phase:
			// that is a cancellation, not an algorithm failure.
			j.finish(time.Now(), JobCanceled, nil, out.err.Error(), false)
		case out.err != nil:
			j.finish(time.Now(), JobFailed, nil, out.err.Error(), false)
		case out.res.Anytime != nil && out.res.Anytime.Partial:
			// A deadline-interrupted anytime run served its best
			// checkpoint: cache it under the quality-qualified key — never
			// the complete key, where it would mask a full-quality result.
			key := j.spec.partialCacheKey(out.res.Anytime.ColorsUsed)
			s.anytimePartials.Add(1)
			s.cache.put(key, out.res)
			s.persistResult(key, out.res)
			s.observeJobDuration(j.spec.Algorithm, time.Since(started))
			j.finish(time.Now(), JobDone, out.res, "", false)
		default:
			s.cache.put(j.spec.CacheKey(), out.res)
			s.persistResult(j.spec.CacheKey(), out.res)
			s.observeJobDuration(j.spec.Algorithm, time.Since(started))
			j.finish(time.Now(), JobDone, out.res, "", false)
		}
	}
	select {
	case out := <-ch:
		handle(out)
	case <-j.ctx.Done():
		if j.spec.Anytime {
			// The deadline fired mid-run: give the algorithm a short grace
			// to abort at its next context check and surface the best
			// checkpoint as a partial result. The watch goroutine leaves
			// running anytime jobs to this path.
			grace := time.NewTimer(s.cfg.AnytimeGrace)
			select {
			case out := <-ch:
				grace.Stop()
				handle(out)
			case <-grace.C:
				j.finish(time.Now(), JobCanceled, nil,
					j.ctx.Err().Error()+" (no anytime checkpoint within grace)", false)
			}
		} else {
			j.finish(time.Now(), JobCanceled, nil, j.ctx.Err().Error(), false)
		}
	}
}

// persistResult writes a computed result through to the durability tier
// so a restarted server serves it from cache. A persist failure degrades
// durability, not the job: the result is valid and already cached, so it
// is logged (and counted in persist.Stats.Errors) rather than failing a
// finished computation.
func (s *Service) persistResult(key string, res *JobResult) {
	if s.persistLog == nil {
		return
	}
	raw, err := json.Marshal(res)
	if err == nil {
		err = s.persistLog.AppendResult(key, raw)
	}
	if err != nil && s.logger != nil {
		s.logger.Error("persist result failed", "key", key, "err", err)
	}
}

// observeJobDuration records a completed computation in the per-algorithm
// latency histogram (cache hits and followers never reach it).
func (s *Service) observeJobDuration(algorithm string, d time.Duration) {
	if s.jobDurations != nil {
		s.jobDurations.Observe(algorithm, d.Seconds())
	}
}

// finishedRec tracks one retained finished job for retention accounting.
type finishedRec struct {
	id    string
	bytes int64
}

// pruneFinished records that j reached a terminal state: it releases j's
// in-flight dedup slot and forgets the oldest finished jobs beyond the
// retention budgets (cfg.RetainJobs entries; result bytes bounded by the
// result-cache byte budget, since retained results pin memory exactly
// like cache entries do). Queued and running jobs are never pruned.
// It is every job's settle hook, so exactly one caller runs it per job:
// the finish() winner, before the job's done channel closes.
func (s *Service) pruneFinished(j *Job) {
	snap := j.Snapshot()
	if s.logger != nil {
		attrs := []any{
			"id", snap.ID,
			"algorithm", snap.Spec.Algorithm,
			"graph", snap.Spec.GraphID,
			"state", string(snap.State),
			"cached", snap.Cached,
		}
		if snap.FinishedAt != nil {
			attrs = append(attrs, "durationMs",
				float64(snap.FinishedAt.Sub(snap.CreatedAt).Microseconds())/1000)
		}
		if snap.Error != "" {
			attrs = append(attrs, "err", snap.Error)
		}
		s.logger.Info("job finished", attrs...)
	}
	s.finalizeObservability(snap, j.rec)
	// Cache hits and dedup followers share one *JobResult with the cache
	// entry (and with each other), so only an actually-computed result
	// counts its full size toward retention; shared references pin ~0
	// extra memory and charging them fully would evict other clients'
	// pollable jobs for no real gain.
	bytes := int64(256)
	if !snap.Cached {
		bytes = approxResultBytes(snap.Result)
	}
	maxBytes := s.cfg.ResultCacheBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxCacheBytes
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[j.spec.inflightKey()] == j {
		delete(s.inflight, j.spec.inflightKey())
	}
	if j.follower {
		s.followers--
	}
	s.finished = append(s.finished, finishedRec{id: j.id, bytes: bytes})
	s.retainedBytes += bytes
	for len(s.finished) > 1 &&
		(len(s.finished) > s.cfg.RetainJobs || s.retainedBytes > maxBytes) {
		oldest := s.finished[0]
		s.finished = s.finished[1:]
		s.retainedBytes -= oldest.bytes
		delete(s.jobs, oldest.id)
	}
}

// resultPhases extracts the round count and per-phase cost breakdown
// from whichever result shape the algorithm produced.
func resultPhases(res *JobResult) (int, []dist.Phase) {
	switch {
	case res == nil:
		return 0, nil
	case res.Decomposition != nil:
		return res.Decomposition.Rounds, res.Decomposition.Phases
	case res.Orientation != nil:
		return res.Orientation.Rounds, res.Orientation.Phases
	default:
		return res.Rounds, res.Phases
	}
}

func millis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// finalizeObservability closes out a terminal job's observability state:
// it attaches the queue and run spans, finalizes the trace against the
// result's authoritative cost breakdown, moves the trace into the ring,
// feeds the per-phase self-time histogram, and appends the job-history
// record. pruneFinished — run exactly once per terminal job — is the
// only caller, so traces land in the ring exactly once. Cost breakdowns
// are recorded only for jobs that actually computed (cache hits,
// followers, failures and cancellations carry none), keeping the ring's
// cumulative phase totals a faithful count of work performed.
func (s *Service) finalizeObservability(snap JobSnapshot, rec *trace.Recorder) {
	finished := snap.CreatedAt
	if snap.FinishedAt != nil {
		finished = *snap.FinishedAt
	}
	hr := JobRecord{
		ID:         snap.ID,
		GraphID:    snap.Spec.GraphID,
		Algorithm:  snap.Spec.Algorithm,
		Mode:       snap.Spec.effectiveMode(),
		State:      snap.State,
		Cached:     snap.Cached,
		Error:      snap.Error,
		CreatedAt:  snap.CreatedAt,
		FinishedAt: finished,
		HasTrace:   rec != nil,
	}
	queueEnd := finished
	if snap.StartedAt != nil {
		queueEnd = *snap.StartedAt
		hr.RunMillis = millis(finished.Sub(*snap.StartedAt))
	}
	hr.QueueMillis = millis(queueEnd.Sub(snap.CreatedAt))
	var phases []dist.Phase
	if snap.State == JobDone && !snap.Cached {
		hr.Rounds, phases = resultPhases(snap.Result)
		hr.Phases = phases
		for _, p := range phases {
			hr.Messages += p.Messages
			hr.Bits += p.Bits
		}
	}
	if rec != nil {
		rec.AddSpan("queue", "job", snap.CreatedAt, queueEnd, nil)
		if snap.StartedAt != nil {
			rec.AddSpan("run "+snap.Spec.Algorithm, "job", *snap.StartedAt, finished,
				map[string]any{"state": string(snap.State), "cached": snap.Cached})
		}
		rec.Finish(finished, phases)
		s.traces.Put(rec)
		if s.phaseSelf != nil {
			for _, p := range rec.Phases() {
				s.phaseSelf.Observe(p.Name, p.Self.Seconds())
			}
		}
	}
	s.history.add(hr)
}

// Trace returns the retained trace for a job ID (false when tracing is
// disabled, the job is unknown, or the trace was evicted).
func (s *Service) Trace(id string) (*trace.Recorder, bool) {
	return s.traces.Get(id)
}

// History returns terminal job records matching the filter, newest
// first.
func (s *Service) History(state JobState, algorithm string, limit int) []JobRecord {
	return s.history.list(historyFilter{state: state, algo: algorithm, limit: limit})
}

// execute fetches the graph and dispatches to the requested entry point,
// verifying decompositions before returning them. The job's hub
// receives incremental repair summaries; phase/round progress arrives
// through the observer already on ctx (the same hub).
func (s *Service) execute(ctx context.Context, j *Job) (*JobResult, error) {
	spec, hub := j.spec, j.hub
	g, err := s.store.Get(spec.GraphID)
	if err != nil {
		return nil, err
	}
	if s.execHook != nil {
		return s.execHook(ctx, g, spec)
	}
	if s.cluster != nil && !j.localOnly && spec.peerEligible() {
		// Cluster path: answer from the routing target's cache or compute
		// there; handled=false degrades to the local compute below (a
		// bit-identical result by the golden cache-key contract). A
		// fallback compute of a graph routed elsewhere is offered back to
		// the target so the fleet converges to "hit everywhere".
		if res, err, handled := s.peerExecute(ctx, j); handled {
			return res, err
		}
		res, err := runSpec(ctx, g, spec)
		if err == nil {
			s.pushResultToTarget(spec, res)
		}
		return res, err
	}
	if spec.effectiveMode() == ModeIncremental {
		if res, ok := s.tryIncremental(ctx, g, spec, hub); ok {
			return res, nil
		}
		// No lineage or no warm start: incremental degrades to a full
		// run rather than failing the job.
	}
	return runSpec(ctx, g, spec)
}

// tryIncremental serves a mode=incremental decompose job by repair
// instead of recomputation: it looks up the mutation batch that derived
// spec.GraphID, takes the parent version's cached decomposition (full
// result preferred, its own incremental result otherwise) as the warm
// start, and replays the batch through a dynamic.Maintainer. The repaired
// coloring is re-verified against this version's own stored graph before
// it is returned, exactly like a cold result. It reports false whenever
// any ingredient is missing, in which case the caller falls back to a
// full run.
func (s *Service) tryIncremental(ctx context.Context, g *graph.Graph, spec JobSpec, hub *eventHub) (*JobResult, bool) {
	parentID, mut, ok := s.store.MutationOf(spec.GraphID)
	if !ok {
		return nil, false
	}
	pSpec := spec
	pSpec.GraphID = parentID
	pSpec.Mode = ""
	warm, ok := s.cache.peek(pSpec.CacheKey())
	if !ok {
		pSpec.Mode = ModeIncremental
		warm, ok = s.cache.peek(pSpec.CacheKey())
	}
	if !ok || warm.Decomposition == nil {
		return nil, false
	}
	parent, err := s.store.Get(parentID)
	if err != nil || len(warm.Decomposition.Colors) != parent.M() {
		return nil, false
	}
	m, err := dynamic.NewMaintainer(parent, warm.Decomposition.Colors, warm.Decomposition.NumForests, dynamic.Config{
		Alpha: spec.Options.Alpha,
		Eps:   spec.Options.Eps,
		Seed:  spec.Options.Seed,
	})
	if err != nil {
		return nil, false
	}
	// Repair rounds are charged to the maintainer's own cost account;
	// forward them to the same observer a full run would use.
	m.Cost().SetObserver(dist.ObserverFromContext(ctx))
	for _, id := range mut.Delete {
		if err := m.DeleteEdge(id); err != nil {
			return nil, false
		}
	}
	for _, e := range mut.Insert {
		if _, err := m.InsertEdge(e[0], e[1]); err != nil {
			return nil, false
		}
	}
	repaired, colors, k, err := m.Result()
	if err != nil || repaired.M() != g.M() {
		return nil, false
	}
	// The maintainer's compaction order matches Mutate's, so the colors
	// line up with this version's edge IDs; verify against the store's
	// graph (the source of truth), not the maintainer's copy. One class
	// walk checks the forests and measures the diameter.
	diameter, err := verify.Forests(g, colors, k)
	if err != nil {
		return nil, false
	}
	stats := m.Stats()
	hub.publish(JobEvent{Type: "repair", Repair: &stats})
	cost := m.Cost()
	return &JobResult{Decomposition: &nwforest.Decomposition{
		Colors:     colors,
		NumForests: k,
		Diameter:   diameter,
		Rounds:     cost.Rounds(),
		Phases:     cost.Breakdown(),
	}}, true
}

// runSpec dispatches one job through the algorithm registry. Validation,
// normalization, defaulting and result verification are owned by the
// descriptors (internal/algo); the service contributes only its own
// concerns — graph resolution, mode handling, caching — around this
// call.
func runSpec(ctx context.Context, g *graph.Graph, spec JobSpec) (*JobResult, error) {
	return algo.Run(ctx, g, spec.request())
}

// validate rejects parameter combinations the algorithms would reject
// obscurely — or panic on — only after a worker picks the job up, so
// clients get a 400 at submit time instead. Per-algorithm rules live in
// the registry descriptors; only the service-level Mode field is
// checked here.
func (sp JobSpec) validate() error {
	if err := algo.ValidateRequest(sp.request()); err != nil {
		return err
	}
	switch sp.Mode {
	case "", "full":
	case ModeIncremental:
		if d, ok := algo.Lookup(sp.Algorithm); !ok || !d.Caps.Incremental {
			return fmt.Errorf("service: mode %q is not supported for algorithm %q", ModeIncremental, sp.Algorithm)
		}
		if sp.Anytime {
			// Incremental repair is not phase-checkpointed; the combination
			// would silently degrade to all-or-nothing.
			return fmt.Errorf("service: anytime is not supported with mode %q", ModeIncremental)
		}
	default:
		return fmt.Errorf("service: unknown mode %q (want \"\", \"full\" or %q)", sp.Mode, ModeIncremental)
	}
	return nil
}

// Stats is the /stats payload. It is also the single source of truth
// behind /metrics: every counter and gauge collector there reads from a
// Stats snapshot refreshed once per scrape, so the two endpoints can
// never drift — any number visible in one is derived from the same
// struct the other serializes.
type Stats struct {
	Workers    int            `json:"workers"`
	QueueDepth int            `json:"queueDepth"`
	QueueCap   int            `json:"queueCap"`
	Jobs       map[string]int `json:"jobs"`
	// Dedups counts submissions that attached to an identical in-flight
	// job instead of recomputing.
	Dedups int64 `json:"dedups"`
	// Anytime counts anytime-mode submissions and the partial
	// (deadline-interrupted) checkpoint results served for them.
	Anytime AnytimeStats `json:"anytime"`
	// RetainedResultBytes is the approximate memory pinned by finished
	// jobs still pollable.
	RetainedResultBytes int64      `json:"retainedResultBytes"`
	Store               StoreStats `json:"store"`
	Results             CacheStats `json:"results"`
	// Trace and History describe the observability rings behind
	// GET /jobs/{id}/trace and GET /jobs/history. Trace is all-zero when
	// tracing is disabled.
	Trace   trace.RingStats `json:"trace"`
	History HistoryStats    `json:"history"`
	// Persist reports the durability tier's counters and Recovery what
	// Open reconstructed from disk; both are nil when persistence is off.
	Persist  *persist.Stats `json:"persist,omitempty"`
	Recovery *RecoveryInfo  `json:"recovery,omitempty"`
	// Node identifies this node in the fleet and Peer counts the peer
	// protocol's activity; both are nil in single-node mode, keeping the
	// document byte-identical to pre-cluster responses.
	Node *cluster.NodeInfo `json:"node,omitempty"`
	Peer *PeerStats        `json:"peer,omitempty"`
}

// AnytimeStats counts the anytime serving path.
type AnytimeStats struct {
	// Jobs is the number of accepted anytime-mode submissions.
	Jobs int64 `json:"jobs"`
	// Partials is the number of deadline-interrupted anytime jobs that
	// completed with a checkpoint (partial) result.
	Partials int64 `json:"partials"`
}

// Stats returns a snapshot of the service's counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	byState := make(map[string]int)
	for _, j := range s.jobs {
		byState[string(j.State())]++
	}
	dedups, retained := s.dedups, s.retainedBytes
	s.mu.Unlock()
	st := Stats{
		Workers:             s.cfg.Workers,
		QueueDepth:          len(s.queue),
		QueueCap:            cap(s.queue),
		Jobs:                byState,
		Dedups:              dedups,
		Anytime:             AnytimeStats{Jobs: s.anytimeJobs.Load(), Partials: s.anytimePartials.Load()},
		RetainedResultBytes: retained,
		Store:               s.store.Stats(),
		Results:             s.cache.stats(),
		Trace:               s.traces.Stats(),
		History:             s.history.stats(),
	}
	if s.persistLog != nil {
		ps := s.persistLog.Stats()
		rec := s.recovery
		st.Persist = &ps
		st.Recovery = &rec
	}
	if s.cluster != nil {
		ni := s.cluster.NodeInfo()
		ps := s.peerStats()
		st.Node = &ni
		st.Peer = &ps
	}
	return st
}

// Close shuts the service down gracefully: new submissions fail with
// ErrClosed, every in-flight job's context is canceled, and Close waits
// (up to ctx's deadline) for the workers to drain.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.stop()       // cancels every job context derived from baseCtx
	close(s.queue) // workers exit once the queue drains
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("service: shutdown timed out: %w", ctx.Err())
	}
	if s.persistLog != nil {
		if s.snapStop != nil {
			close(s.snapStop)
			<-s.snapDone
		}
		// A final checkpoint makes the next start replay nothing; any
		// failure here still leaves the WAL intact for recovery.
		if serr := s.SnapshotNow(); serr != nil && s.logger != nil {
			s.logger.Error("final snapshot failed", "err", serr)
		}
		if cerr := s.persistLog.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
