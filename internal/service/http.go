package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nwforest/internal/graph"
	"nwforest/internal/telemetry"
)

// maxUploadBytes caps POST /graphs bodies.
const maxUploadBytes = 256 << 20

// NewHTTPHandler returns the HTTP/JSON surface over svc:
//
//	POST   /graphs          ingest a graph; raw body in any supported
//	                        format (?format=plain|dimacs|metis overrides
//	                        auto-detection), or {"path": "..."} with
//	                        Content-Type: application/json to ingest a
//	                        server-side file relative to Config.IngestDir
//	                        (403 unless an ingest directory is configured)
//	GET    /graphs          list stored graphs
//	GET    /graphs/{id}     metadata of one graph (including its parent
//	                        version, if derived by mutation)
//	POST   /graphs/{id}/edges
//	                        derive a new version: {"insert": [[u,v],...],
//	                        "delete": [edgeID,...]} applies the batch to
//	                        graph {id} and returns the content-addressed
//	                        child version (201)
//	GET    /algorithms      registry metadata: names, required params and
//	                        capability flags of every runnable algorithm,
//	                        so clients discover the job surface instead
//	                        of guessing it
//	POST   /jobs            submit a JobSpec; 200 + done job on a cache
//	                        hit, 202 + queued job otherwise, 503 when the
//	                        queue is full. "anytime": true (anytime-capable
//	                        algorithms, mode full) makes a mid-run deadline
//	                        serve the best phase-boundary checkpoint as a
//	                        200 partial result (result.anytime carries its
//	                        quality bound) instead of canceling the job
//	GET    /jobs            list retained jobs
//	GET    /jobs/{id}       poll a job; ?wait=5s blocks until it finishes
//	                        or the duration elapses
//	GET    /jobs/{id}/events
//	                        the job's progress stream as server-sent
//	                        events: state transitions, algorithm phases,
//	                        round totals, and incremental repair
//	                        summaries; history replays first, then live
//	                        events until the job finishes
//	GET    /jobs/{id}/trace the job's finished trace as Chrome
//	                        trace-event JSON (loads directly in Perfetto
//	                        and chrome://tracing): request/queue/run spans,
//	                        one span per algorithm phase with
//	                        rounds/messages/bits attached, and sampled
//	                        per-round instants when enabled; 409 while the
//	                        job is still running, 404 once evicted or when
//	                        tracing is disabled
//	GET    /jobs/history    terminal job records (id, graph, algorithm,
//	                        mode, queue/run timings, cost breakdown,
//	                        outcome), newest first, retained independently
//	                        of job retention; ?state=, ?algorithm= and
//	                        ?limit= filter
//	DELETE /jobs/{id}       cancel a job
//	GET    /stats           store / cache / queue / trace / persistence
//	                        counters
//	GET    /metrics         the same counters (plus latency and per-phase
//	                        histograms) in Prometheus text format, derived
//	                        from the same snapshot /stats serializes
//	GET    /healthz         liveness (200 even while draining)
//	GET    /readyz          drain-aware readiness: 503 once StartDrain
//	                        has been called, so load balancers and peers
//	                        route around a node that is shutting down
//	GET    /cluster/stats   fleet-wide stats view assembled from gossip
//	                        (cluster mode only; 404 otherwise)
//	/peer/...               the internal node-to-node protocol (cluster
//	                        mode only): health ping, gossip exchange,
//	                        graph replication and fill, result-cache
//	                        fill, and forwarded job computation. These
//	                        routes assume a trusted network — see
//	                        registerPeerRoutes
//
// When svc was configured with a Logger, every completed request is
// logged through it.
func NewHTTPHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /graphs", func(w http.ResponseWriter, r *http.Request) {
		handleAddGraph(svc, w, r)
	})
	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"graphs": svc.Store().List()})
	})
	mux.HandleFunc("GET /graphs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := svc.Store().Info(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /graphs/{id}/edges", func(w http.ResponseWriter, r *http.Request) {
		handleMutateGraph(svc, w, r)
	})
	mux.HandleFunc("GET /algorithms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"algorithms": AlgorithmInfos()})
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmitJob(svc, w, r)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": svc.Jobs()})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleGetJob(svc, w, r)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		handleJobEvents(svc, w, r)
	})
	// The literal /jobs/history pattern wins over /jobs/{id}, so "history"
	// is not a reachable job ID via this surface (IDs are "j-N" anyway).
	mux.HandleFunc("GET /jobs/history", func(w http.ResponseWriter, r *http.Request) {
		handleJobHistory(svc, w, r)
	})
	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		handleJobTrace(svc, w, r)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, ok := svc.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		}
		svc.Cancel(id)
		writeJSON(w, http.StatusOK, j.Snapshot())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})
	mux.Handle("GET /metrics", svc.MetricsHandler())
	// /healthz is pure liveness — "the process is up and serving" — and
	// deliberately stays 200 during a drain; /readyz (cluster.go) is the
	// drain-aware readiness signal.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	registerPeerRoutes(svc, mux)
	return telemetry.LogRequests(svc.logger, mux)
}

// handleJobEvents serves GET /jobs/{id}/events: the job's event history
// replays first, then live events stream until the job's done channel
// closes or the client disconnects. Because the terminal event is
// published before done closes, the stream always ends with it, and by
// then the job's trace and history record are in place.
func handleJobEvents(svc *Service, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := svc.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	sse, err := telemetry.NewSSEWriter(w)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	notify, unsubscribe := j.hub.subscribe()
	defer unsubscribe()
	var last int64
	flush := func() bool {
		for _, ev := range j.hub.since(last) {
			if err := sse.Send(ev.Type, ev); err != nil {
				return false
			}
			last = ev.Seq
		}
		return true
	}
	for {
		if !flush() {
			return
		}
		select {
		case <-notify:
		case <-j.Done():
			flush() // drain anything published since the last flush
			return
		case <-r.Context().Done():
			return
		}
	}
}

func handleAddGraph(svc *Service, w http.ResponseWriter, r *http.Request) {
	format, err := graph.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var info GraphInfo
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req struct {
			Path string `json:"path"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if req.Path == "" {
			writeError(w, http.StatusBadRequest, errors.New(`"path" is required in JSON ingests`))
			return
		}
		var abs string
		if abs, err = svc.ResolveIngestPath(req.Path); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrIngestForbidden) {
				status = http.StatusForbidden
			}
			writeError(w, status, err)
			return
		}
		info, err = svc.Store().AddFile(abs, format)
	} else {
		var data []byte
		data, err = readAll(r.Body, maxUploadBytes)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if len(data) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("empty graph upload"))
			return
		}
		// The cluster-aware ingest: stored locally, then replicated to the
		// ring owner (a no-op in single-node mode). The returned ID is the
		// content address either way — upload anywhere, same ID.
		info, err = svc.IngestBytes(data, format)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// maxMutationBytes caps POST /graphs/{id}/edges bodies; a batch of a
// few million edges fits comfortably.
const maxMutationBytes = 64 << 20

func handleMutateGraph(svc *Service, w http.ResponseWriter, r *http.Request) {
	var mut Mutation
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutationBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mut); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad mutation body: %w", err))
		return
	}
	if len(mut.Insert) == 0 && len(mut.Delete) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty mutation: need \"insert\" and/or \"delete\""))
		return
	}
	info, err := svc.MutateGraph(r.PathValue("id"), mut)
	switch {
	case errors.Is(err, ErrUnknownGraph):
		// Mutate's own lookup decides existence, so an eviction between a
		// pre-check and the derivation can't be misreported as a 400.
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handleJobTrace serves GET /jobs/{id}/trace: the finished job's span
// timeline from the trace ring, as Chrome trace-event JSON. A job that
// is still known but not yet settled answers 409 (its trace is not in
// the ring yet); anything else — unknown ID, evicted trace, tracing
// disabled — is a 404.
func handleJobTrace(svc *Service, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := svc.Trace(id)
	if !ok {
		if j, known := svc.Get(id); known && !j.settled() {
			writeError(w, http.StatusConflict,
				fmt.Errorf("job %q has not finished; its trace is not available yet", id))
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = rec.WriteJSON(w)
}

// handleJobHistory serves GET /jobs/history: terminal job records newest
// first, optionally filtered by ?state=, ?algorithm= and ?limit=.
func handleJobHistory(svc *Service, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := JobState(q.Get("state"))
	switch state {
	case "", JobDone, JobFailed, JobCanceled:
	case JobQueued, JobRunning:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("state %q never appears in the history; it records terminal jobs only", state))
		return
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown state %q", state))
		return
	}
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", ls))
			return
		}
		limit = n
	}
	recs := svc.History(state, q.Get("algorithm"), limit)
	if recs == nil {
		recs = []JobRecord{} // render an empty array, not null
	}
	writeJSON(w, http.StatusOK, map[string]any{"history": recs})
}

func handleSubmitJob(svc *Service, w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	j, err := svc.Submit(spec)
	if err == nil {
		if rec := j.TraceRecorder(); rec != nil {
			// The request span covers decode + Submit (validation, cache
			// probe, registration, enqueue). For cache hits the job is
			// already finished and its trace already in the ring; AddSpan
			// after Finish is permitted for exactly this reason.
			rec.AddSpan("http POST /jobs", "request", reqStart, time.Now(), nil)
		}
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrUnknownGraph):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap := j.Snapshot()
	if snap.State.terminal() { // cache hit
		writeJSON(w, http.StatusOK, snap)
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

func handleGetJob(svc *Service, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := svc.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait duration %q", waitStr))
			return
		}
		// wait=0s is the conventional "don't block": fall through to the
		// immediate snapshot rather than waiting on the request context.
		if d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			writeJSON(w, http.StatusOK, svc.Wait(ctx, j))
			return
		}
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
