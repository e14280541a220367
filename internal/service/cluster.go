package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"nwforest/internal/cluster"
	"nwforest/internal/graph"
)

// Peer RPC deadlines. The cache probe is on the job's critical path, so
// it gives up fast and lets the forward (or local compute) proceed;
// graph transfer moves real bytes and gets proportionally longer.
// ForwardCompute deliberately has no own deadline — it runs under the
// job's context, whose timeout already bounds the whole computation.
const (
	peerCacheProbeTimeout = 3 * time.Second
	peerCachePushTimeout  = 10 * time.Second
	peerGraphTimeout      = 30 * time.Second
)

// peerCounters tracks the cluster integration's activity. Atomics:
// every field is bumped on worker or HTTP goroutines.
type peerCounters struct {
	cacheFillHits    atomic.Int64
	cacheFillMisses  atomic.Int64
	forwards         atomic.Int64
	fallbacks        atomic.Int64
	graphFills       atomic.Int64
	graphPushes      atomic.Int64
	cachePushes      atomic.Int64
	servedCacheFills atomic.Int64
}

// PeerStats is the cluster block of /stats (nil outside cluster mode).
type PeerStats struct {
	// CacheFillHits / CacheFillMisses count read-through probes of the
	// owner's result cache before computing or forwarding.
	CacheFillHits   int64 `json:"cacheFillHits"`
	CacheFillMisses int64 `json:"cacheFillMisses"`
	// Forwards counts jobs handed to their owner for computation;
	// Fallbacks counts peer paths that degraded to local compute.
	Forwards  int64 `json:"forwards"`
	Fallbacks int64 `json:"fallbacks"`
	// GraphFills counts graphs pulled from peers on demand; GraphPushes
	// counts graphs replicated to their owner after a local ingest.
	GraphFills  int64 `json:"graphFills"`
	GraphPushes int64 `json:"graphPushes"`
	// CachePushes counts results offered to the routing target after a
	// fallback local compute; ServedCacheFills counts cache entries this
	// node served to probing peers.
	CachePushes      int64         `json:"cachePushes"`
	ServedCacheFills int64         `json:"servedCacheFills"`
	Cluster          cluster.Stats `json:"cluster"`
}

// AttachCluster joins this service to a fleet: peer-aware execution
// turns on, /stats gains the node identity and peer blocks, and the
// nwserve_peer_* metrics register. Call it after Open and before
// serving requests or starting the cluster loops; single-node operation
// (no call) leaves every request path exactly as before.
func (s *Service) AttachCluster(c *cluster.Cluster) {
	s.cluster = c
	r := s.metrics
	stat := func() *PeerStats {
		if st := s.statSnap.Load(); st != nil && st.Peer != nil {
			return st.Peer
		}
		ps := s.peerStats()
		return &ps
	}
	r.Counter("nwserve_peer_cache_fill_hits_total",
		"Jobs answered from a peer's result cache without computing.", func() float64 {
			return float64(stat().CacheFillHits)
		})
	r.Counter("nwserve_peer_cache_fill_misses_total",
		"Owner cache probes that found no result.", func() float64 {
			return float64(stat().CacheFillMisses)
		})
	r.Counter("nwserve_peer_forwards_total",
		"Jobs forwarded to their ring owner for computation.", func() float64 {
			return float64(stat().Forwards)
		})
	r.Counter("nwserve_peer_fallbacks_total",
		"Peer paths that degraded to local compute.", func() float64 {
			return float64(stat().Fallbacks)
		})
	r.Counter("nwserve_peer_graph_fills_total",
		"Graphs fetched from peers on demand.", func() float64 {
			return float64(stat().GraphFills)
		})
	r.Counter("nwserve_peer_graph_pushes_total",
		"Graphs replicated to their ring owner after ingest.", func() float64 {
			return float64(stat().GraphPushes)
		})
	r.Counter("nwserve_peer_cache_pushes_total",
		"Results offered to the routing target after a fallback compute.", func() float64 {
			return float64(stat().CachePushes)
		})
	r.Counter("nwserve_peer_served_cache_fills_total",
		"Cache entries served to probing peers.", func() float64 {
			return float64(stat().ServedCacheFills)
		})
	r.Gauge("nwserve_peer_known", "Configured peers (fleet size minus one).", func() float64 {
		return float64(stat().Cluster.PeersKnown)
	})
	r.Gauge("nwserve_peer_alive", "Peers currently believed alive.", func() float64 {
		return float64(stat().Cluster.PeersAlive)
	})
	r.Counter("nwserve_peer_gossip_rounds_total",
		"Push-pull gossip exchanges initiated.", func() float64 {
			return float64(stat().Cluster.GossipSent)
		})
	r.Counter("nwserve_peer_ping_failures_total",
		"Peer health probes that failed or found the peer draining.", func() float64 {
			return float64(stat().Cluster.PingFailures)
		})
}

// Cluster returns the attached fleet state, nil in single-node mode.
func (s *Service) Cluster() *cluster.Cluster { return s.cluster }

// peerStats snapshots the cluster integration counters.
func (s *Service) peerStats() PeerStats {
	ps := PeerStats{
		CacheFillHits:    s.peerCtr.cacheFillHits.Load(),
		CacheFillMisses:  s.peerCtr.cacheFillMisses.Load(),
		Forwards:         s.peerCtr.forwards.Load(),
		Fallbacks:        s.peerCtr.fallbacks.Load(),
		GraphFills:       s.peerCtr.graphFills.Load(),
		GraphPushes:      s.peerCtr.graphPushes.Load(),
		CachePushes:      s.peerCtr.cachePushes.Load(),
		ServedCacheFills: s.peerCtr.servedCacheFills.Load(),
	}
	if s.cluster != nil {
		ps.Cluster = s.cluster.Stats()
	}
	return ps
}

// StatsSummary builds the compact digest this node gossips to the
// fleet (the per-node row of GET /cluster/stats).
func (s *Service) StatsSummary() cluster.StatsSummary {
	st := s.Stats()
	sum := cluster.StatsSummary{
		JobsDone:     int64(st.Jobs[string(JobDone)]),
		JobsFailed:   int64(st.Jobs[string(JobFailed)]),
		JobsRunning:  int64(st.Jobs[string(JobRunning)]),
		QueueDepth:   st.QueueDepth,
		Workers:      st.Workers,
		Graphs:       st.Store.Graphs,
		CacheEntries: st.Results.Size,
		CacheHits:    st.Results.Hits,
		CacheMisses:  st.Results.Misses,
	}
	if st.Peer != nil {
		sum.PeerCacheFills = st.Peer.CacheFillHits
		sum.PeerForwards = st.Peer.Forwards
		sum.PeerFallbacks = st.Peer.Fallbacks
	}
	return sum
}

// Ready reports whether this node should receive new work: false once
// draining has begun or the service is closed. GET /readyz and the peer
// ping handler both answer from it.
func (s *Service) Ready() bool {
	if s.draining.Load() {
		return false
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	return !closed
}

// StartDrain flips the node to not-ready without stopping work:
// /readyz and /peer/ping answer 503, so load balancers and peers route
// around while in-flight jobs finish. Call it before Close.
func (s *Service) StartDrain() { s.draining.Store(true) }

// IngestBytes is the cluster-aware upload path: ingest locally (the ID
// a client sees never depends on membership), then replicate the bytes
// to the ring owner so the fleet finds the graph where routing expects
// it. Replication failure is logged, never surfaced — the upload stands
// on the local copy, and peers still read-through-fill on demand.
func (s *Service) IngestBytes(data []byte, f graph.Format) (GraphInfo, error) {
	info, err := s.store.AddBytes(data, f)
	if err == nil {
		s.replicateToOwner(info.ID)
	}
	return info, err
}

// MutateGraph is the cluster-aware version derivation: the parent is
// pulled from the fleet if this node doesn't hold it, and the derived
// child is replicated to its own owner (children hash differently, so
// they usually live elsewhere).
func (s *Service) MutateGraph(parent string, mut Mutation) (GraphInfo, error) {
	s.ensureGraph(parent)
	info, err := s.store.Mutate(parent, mut)
	if err == nil {
		s.replicateToOwner(info.ID)
	}
	return info, err
}

// replicateToOwner best-effort copies a stored graph's bytes to its
// routing target. A no-op when this node is the target or in
// single-node mode.
func (s *Service) replicateToOwner(id string) {
	if s.cluster == nil {
		return
	}
	peer, self := s.cluster.Route(id)
	if self {
		return
	}
	data, format, err := s.store.SourceData(id)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, peerGraphTimeout)
	defer cancel()
	if err := s.cluster.ForwardGraph(ctx, peer, string(format), data); err != nil {
		if s.logger != nil {
			s.logger.Warn("graph replication failed", "graph", id, "peer", peer.ID, "err", err)
		}
		return
	}
	s.peerCtr.graphPushes.Add(1)
}

// ensureGraph makes spec.GraphID locally resolvable, pulling the bytes
// from the fleet when this node doesn't hold them: the routing target
// first (that's where uploads replicate to), then every alive peer —
// upload-anywhere means the bytes may live only where the client
// happened to connect. The re-ingested ID is content-addressed, so a
// corrupt or wrong transfer changes the ID and is rejected rather than
// served.
func (s *Service) ensureGraph(id string) bool {
	if _, ok := s.store.Info(id); ok {
		return true
	}
	if s.cluster == nil {
		return false
	}
	candidates := make([]cluster.Peer, 0, 4)
	if peer, self := s.cluster.Route(id); !self {
		candidates = append(candidates, peer)
	}
	for _, p := range s.cluster.AlivePeers() {
		if len(candidates) == 0 || p.ID != candidates[0].ID {
			candidates = append(candidates, p)
		}
	}
	for _, p := range candidates {
		ctx, cancel := context.WithTimeout(s.baseCtx, peerGraphTimeout)
		data, format, found, err := s.cluster.FetchGraph(ctx, p, id)
		cancel()
		if err != nil || !found {
			continue
		}
		info, err := s.store.AddBytes(data, graph.Format(format))
		if err != nil || info.ID != id {
			if s.logger != nil {
				s.logger.Warn("peer graph fill rejected", "graph", id, "peer", p.ID,
					"gotID", info.ID, "err", err)
			}
			continue
		}
		s.peerCtr.graphFills.Add(1)
		return true
	}
	return false
}

// peerEligible reports whether a job may take the peer path at all:
// plain full-mode jobs only. Incremental repair depends on local
// lineage and cached parent results, and anytime jobs have
// deadline-coupled partial semantics that must stay on the node that
// owns the deadline.
func (sp JobSpec) peerEligible() bool {
	return !sp.Anytime && sp.effectiveMode() == ""
}

// peerExecute tries to answer a job from the fleet instead of
// computing: probe the routing target's result cache (read-through
// fill), then forward the computation to it. handled=false means the
// caller should compute locally — either this node is the target or
// the peer path degraded (dead peer, overloaded owner, transport
// error); by the golden cache-key contract the local result is
// bit-identical, so degradation is invisible to the client.
func (s *Service) peerExecute(ctx context.Context, j *Job) (res *JobResult, err error, handled bool) {
	spec := j.spec
	peer, self := s.cluster.Route(spec.GraphID)
	if self {
		return nil, nil, false
	}
	key := spec.CacheKey()

	probeStart := time.Now()
	probeCtx, cancel := context.WithTimeout(ctx, peerCacheProbeTimeout)
	body, found, perr := s.cluster.FetchCachedResult(probeCtx, peer, key)
	cancel()
	if j.rec != nil {
		j.rec.AddSpan("peer cache-fill "+peer.ID, "peer", probeStart, time.Now(),
			map[string]any{"peer": peer.ID, "hit": found})
	}
	if perr == nil && found {
		var r JobResult
		if jerr := json.Unmarshal(body, &r); jerr == nil {
			s.peerCtr.cacheFillHits.Add(1)
			return &r, nil, true
		}
	}
	s.peerCtr.cacheFillMisses.Add(1)
	if perr != nil {
		// The target is unreachable; don't also wait out a forward.
		s.peerCtr.fallbacks.Add(1)
		return nil, nil, false
	}

	specJSON, jerr := json.Marshal(spec)
	if jerr != nil {
		return nil, nil, false
	}
	s.peerCtr.forwards.Add(1)
	fwdStart := time.Now()
	status, respBody, ferr := s.cluster.ForwardCompute(ctx, peer, specJSON)
	if j.rec != nil {
		j.rec.AddSpan("peer forward "+peer.ID, "peer", fwdStart, time.Now(),
			map[string]any{"peer": peer.ID, "status": status})
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr, true // job deadline/cancel, not a peer problem
	}
	if ferr != nil || status != http.StatusOK {
		s.peerCtr.fallbacks.Add(1)
		return nil, nil, false
	}
	var snap JobSnapshot
	if jerr := json.Unmarshal(respBody, &snap); jerr != nil {
		s.peerCtr.fallbacks.Add(1)
		return nil, nil, false
	}
	switch {
	case snap.State == JobDone && snap.Result != nil:
		return snap.Result, nil, true
	case snap.State == JobFailed:
		// Execution is deterministic: the owner's failure is exactly what
		// a local run would produce, so propagate instead of re-failing.
		return nil, errors.New(snap.Error), true
	default:
		// Canceled (owner's policy, e.g. drain) or not terminal: compute
		// here rather than surface a peer-internal outcome to the client.
		s.peerCtr.fallbacks.Add(1)
		return nil, nil, false
	}
}

// pushResultToTarget best-effort offers a locally computed result to
// the key's routing target after a fallback compute, restoring the
// "computed anywhere, hit everywhere" property once the fleet heals.
// Async: the client's response never waits on it, and Close cancels it.
func (s *Service) pushResultToTarget(spec JobSpec, res *JobResult) {
	if s.cluster == nil || !spec.peerEligible() {
		return
	}
	peer, self := s.cluster.Route(spec.GraphID)
	if self {
		return
	}
	data, err := json.Marshal(res)
	if err != nil {
		return
	}
	key := spec.CacheKey()
	go func() {
		ctx, cancel := context.WithTimeout(s.baseCtx, peerCachePushTimeout)
		defer cancel()
		if err := s.cluster.PushCachedResult(ctx, peer, key, data); err == nil {
			s.peerCtr.cachePushes.Add(1)
		}
	}()
}

// registerPeerRoutes mounts the readiness, fleet-stats and internal
// /peer/... surface on the service mux. The /peer/... routes implement
// the node-to-node protocol and assume a trusted network (bind fleets
// to an internal interface); they answer 404 in single-node mode.
func registerPeerRoutes(svc *Service, mux *http.ServeMux) {
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !svc.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	withCluster := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if svc.cluster == nil {
				writeError(w, http.StatusNotFound, errors.New("not running in cluster mode"))
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("GET /cluster/stats", withCluster(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.cluster.FleetView())
	}))
	mux.HandleFunc("GET /peer/ping", withCluster(func(w http.ResponseWriter, r *http.Request) {
		svc.cluster.HandlePing(w, r)
	}))
	mux.HandleFunc("POST /peer/gossip", withCluster(func(w http.ResponseWriter, r *http.Request) {
		svc.cluster.HandleGossip(w, r)
	}))

	// POST /peer/graphs ingests replicated graph bytes. Deliberately
	// local-only (no onward replication): the sender targeted this node
	// by the ring, and re-replicating would bounce graphs between nodes
	// with divergent membership views.
	mux.HandleFunc("POST /peer/graphs", withCluster(func(w http.ResponseWriter, r *http.Request) {
		format, err := graph.ParseFormat(r.URL.Query().Get("format"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		data, err := readAll(r.Body, maxUploadBytes)
		if err != nil || len(data) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("bad peer graph body"))
			return
		}
		info, err := svc.store.AddBytes(data, format)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	}))
	mux.HandleFunc("GET /peer/graphs/{id}/data", withCluster(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		data, format, err := svc.store.SourceData(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Nwserve-Format", string(format))
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	}))

	// GET /peer/cache serves read-through fills from the local result
	// cache. peek, not get: peer probes must not skew the client-visible
	// hit/miss counters.
	mux.HandleFunc("GET /peer/cache", withCluster(func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if key == "" {
			writeError(w, http.StatusBadRequest, errors.New("missing key"))
			return
		}
		res, ok := svc.cache.peek(key)
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no cached result"))
			return
		}
		svc.peerCtr.servedCacheFills.Add(1)
		writeJSON(w, http.StatusOK, res)
	}))
	mux.HandleFunc("PUT /peer/cache", withCluster(func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if key == "" {
			writeError(w, http.StatusBadRequest, errors.New("missing key"))
			return
		}
		var res JobResult
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
		if err := dec.Decode(&res); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		svc.cache.put(key, &res)
		svc.persistResult(key, &res)
		w.WriteHeader(http.StatusNoContent)
	}))

	// POST /peer/jobs runs a forwarded job to a terminal state and
	// returns its snapshot. SubmitLocal, not Submit: a forwarded job
	// must never forward again, whatever this node's ring says — one
	// hop, then compute.
	mux.HandleFunc("POST /peer/jobs", withCluster(func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		j, err := svc.SubmitLocal(spec)
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err)
			return
		case errors.Is(err, ErrUnknownGraph):
			writeError(w, http.StatusNotFound, err)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, svc.Wait(r.Context(), j))
	}))
}
