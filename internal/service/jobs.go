package service

import (
	"context"
	"strconv"
	"sync"
	"time"

	"nwforest"
	"nwforest/internal/algo"
	"nwforest/internal/trace"
)

// JobState is the lifecycle state of a job.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is executing it.
	JobRunning JobState = "running"
	// JobDone: finished successfully; Result is set.
	JobDone JobState = "done"
	// JobFailed: the algorithm returned an error.
	JobFailed JobState = "failed"
	// JobCanceled: canceled by the client, a deadline, or shutdown before
	// producing a result.
	JobCanceled JobState = "canceled"
)

// terminal reports whether a job in this state will never change again.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobSpec is a client's request: run one algorithm on one stored graph.
type JobSpec struct {
	// GraphID is the store ID ("sha256:...") of the input graph.
	GraphID string `json:"graph"`
	// Algorithm selects the entry point; see Algorithms for the list.
	Algorithm string `json:"algorithm"`
	// Options configures the run (alpha, eps, seed, ...). Algorithms that
	// do not read a field ignore it.
	Options nwforest.Options `json:"options"`
	// AlphaStar is the star-arboricity bound for "be" and "stars-list24".
	AlphaStar int `json:"alphaStar,omitempty"`
	// PaletteSize overrides the palette size for the list variants
	// (0 = a default derived from Alpha and Eps).
	PaletteSize int `json:"paletteSize,omitempty"`
	// TimeoutMillis bounds the job's total lifetime (queue wait plus
	// execution); 0 uses the service default.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// Mode selects how the result is computed: "" or "full" recomputes
	// from scratch; "incremental" (algorithm "decompose" only) warm-starts
	// from the parent version's cached decomposition and repairs it under
	// the mutation batch that derived this graph, falling back to a full
	// run when no warm start is available. Incremental results are valid
	// decompositions of the same graph but generally use different colors
	// than a full run, so Mode is part of the cache identity.
	Mode string `json:"mode,omitempty"`
	// Anytime (anytime-capable algorithms only, mode full) turns the
	// job's deadline from a failure into a quality trade-off: when the
	// deadline fires mid-run the job completes with the best
	// phase-boundary checkpoint as a partial result (Result.Anytime
	// carries its quality bound) instead of being canceled. A job that
	// finishes in time returns the bit-identical complete result, which
	// is why Anytime is not part of the cache key; partial results are
	// cached under a key qualified with their quality bound.
	Anytime bool `json:"anytime,omitempty"`
}

// ModeIncremental is the JobSpec.Mode value requesting warm-start repair.
const ModeIncremental = "incremental"

// request converts the spec into the registry's Request form; Mode and
// TimeoutMillis are service-level concerns that stay behind.
func (sp JobSpec) request() algo.Request {
	return algo.Request{
		Algorithm:   sp.Algorithm,
		Options:     sp.Options,
		AlphaStar:   sp.AlphaStar,
		PaletteSize: sp.PaletteSize,
		Anytime:     sp.Anytime,
	}
}

// effectiveMode is the normalized Mode: "" unless the spec genuinely
// requests an incremental run of an algorithm whose descriptor supports
// warm-start repair ("full" is the explicit spelling of the default).
func (sp JobSpec) effectiveMode() string {
	if sp.Mode != ModeIncremental {
		return ""
	}
	if d, ok := algo.Lookup(sp.Algorithm); !ok || !d.Caps.Incremental {
		return ""
	}
	return ModeIncremental
}

// CacheKey canonicalizes the spec into the result-cache key. Two specs
// share a key exactly when they denote the same computation: the
// algorithm+parameter portion is the descriptor's canonical contribution
// (algo.CacheKey, built from the normalized request), so parameters the
// selected algorithm ignores, values that merely spell out a default,
// and TimeoutMillis (which bounds the run but does not change the
// result) never split the cache. The graph identity and the
// service-level mode tag frame the descriptor's portion; the rendering
// is byte-identical to the pre-registry format, so existing caches stay
// valid.
func (sp JobSpec) CacheKey() string {
	return sp.GraphID + "|" + algo.CacheKey(sp.request()) + ",mode=" + sp.effectiveMode()
}

// partialCacheKey keys a partial anytime result by its quality bound:
// partial and complete entries never collide, and partials of different
// quality never overwrite each other. Submit only ever consults the
// plain CacheKey — a complete result satisfies an anytime request, but a
// cached partial must never mask a fresh (possibly complete) run.
func (sp JobSpec) partialCacheKey(bound int) string {
	return sp.CacheKey() + ",anytime-partial=" + strconv.Itoa(bound)
}

// inflightKey keys the in-flight dedup map. Anytime jobs never share a
// leader with non-anytime jobs: their deadline outcomes differ (one
// side's partial result or cancellation would be wrong for the other).
func (sp JobSpec) inflightKey() string {
	if sp.Anytime {
		return sp.CacheKey() + ",anytime"
	}
	return sp.CacheKey()
}

// JobResult is the output of a completed job: the registry's Result —
// exactly the fields relevant to the requested algorithm are set.
type JobResult = algo.Result

// Job is one unit of work owned by the Service.
type Job struct {
	mu sync.Mutex

	id       string
	spec     JobSpec
	state    JobState
	cached   bool
	follower bool // attached to an in-flight leader; set before registration
	// localOnly pins execution to this node: set for peer-forwarded jobs
	// (SubmitLocal), which must never consult or forward to peers again.
	localOnly bool
	result    *JobResult
	errMsg    string

	created  time.Time
	started  time.Time
	finished time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed once a terminal job is settled
	// settle runs once, on the goroutine whose transition made the job
	// terminal, before done closes: the service's trace, history and
	// retention bookkeeping, which anyone woken by Done() must find
	// complete.
	settle func(*Job)

	// hub carries the job's progress event stream (GET /jobs/{id}/events).
	// The terminal state event is published with the terminal
	// transition, before done is closed, so a subscriber woken by Done()
	// always finds it in the history.
	hub *eventHub

	// rec is the job's span recorder (GET /jobs/{id}/trace); nil when
	// tracing is disabled. It is set before the job is shared and moves
	// into the service's trace ring when the job finishes.
	rec *trace.Recorder
}

// JobSnapshot is a point-in-time JSON view of a job.
type JobSnapshot struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`
	// Cached reports that the result was served from the result cache
	// without running the algorithm.
	Cached bool       `json:"cached,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`

	CreatedAt  time.Time  `json:"createdAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
}

// ID returns the job's service-assigned identifier.
func (j *Job) ID() string { return j.id }

// TraceRecorder returns the job's span recorder, or nil when tracing is
// disabled. The HTTP layer uses it to attach the request span.
func (j *Job) TraceRecorder() *trace.Recorder { return j.rec }

// Done returns a channel closed when the job reaches a terminal state
// and its trace and history record are in place.
func (j *Job) Done() <-chan struct{} { return j.done }

// settled reports whether done has closed.
func (j *Job) settled() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Snapshot returns a consistent view of the job.
func (j *Job) Snapshot() JobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := JobSnapshot{
		ID:        j.id,
		Spec:      j.spec,
		State:     j.state,
		Cached:    j.cached,
		Result:    j.result,
		Error:     j.errMsg,
		CreatedAt: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		snap.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		snap.FinishedAt = &t
	}
	return snap
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// tryStart moves a queued job to running; it fails if the job was
// canceled while waiting in the queue.
func (j *Job) tryStart(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = now
	j.hub.publish(JobEvent{Type: "state", State: JobRunning})
	return true
}

// finish moves the job to a terminal state; the first transition wins and
// later ones (e.g. a computation completing after its job was canceled)
// are dropped. cached marks results served without running the algorithm
// (result-cache hits and deduplicated in-flight followers). The winner
// settles the job before finish returns.
func (j *Job) finish(now time.Time, state JobState, res *JobResult, errMsg string, cached bool) bool {
	j.mu.Lock()
	won := j.finishLocked(now, state, res, errMsg, cached)
	j.mu.Unlock()
	if won {
		j.settleTerminal()
	}
	return won
}

// finishLocked is the terminal transition, with j.mu already held; the
// caller settles the job after releasing j.mu if it won.
func (j *Job) finishLocked(now time.Time, state JobState, res *JobResult, errMsg string, cached bool) bool {
	if j.state.terminal() {
		return false
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.cached = cached
	j.finished = now
	j.hub.publish(JobEvent{Type: "state", State: state, Cached: cached, Error: errMsg})
	j.cancel() // release the context's resources
	return true
}

// settleTerminal runs the settle hook and then closes done, so anyone
// woken by Done() finds the job's trace, history record and terminal
// event. Only the winning transition's goroutine calls it, once.
func (j *Job) settleTerminal() {
	j.settle(j)
	close(j.done)
}

// cancelIfQueued moves a job that is still waiting in the queue to
// JobCanceled; a running job is left untouched (the anytime path lets
// the worker turn a mid-run deadline into a partial result instead).
// The state check and the transition are atomic under j.mu, so it can
// never race tryStart into canceling a job a worker just claimed.
func (j *Job) cancelIfQueued(now time.Time, errMsg string) bool {
	j.mu.Lock()
	won := j.state == JobQueued && j.finishLocked(now, JobCanceled, nil, errMsg, false)
	j.mu.Unlock()
	if won {
		j.settleTerminal()
	}
	return won
}

// Cancel requests cancellation: queued and running jobs move to
// JobCanceled (a running computation is abandoned; its eventual result
// is discarded and not cached). Canceling a terminal job is a no-op.
// It reports whether this call performed the cancellation.
//
// The transition comes first and cancels the context itself: canceling
// the context first would let the watcher or the worker, woken by
// ctx.Done(), take the terminal transition with the context's error.
func (j *Job) Cancel(reason string) bool {
	return j.finish(time.Now(), JobCanceled, nil, reason, false)
}
