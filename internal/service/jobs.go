package service

import (
	"context"
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
	// JobRunning: a worker is executing it, or publishing its result.
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
	// never cached, so one can never mask a complete run.
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

// admission is how Submit took a job in. It is set at registration and
// never changes, so the POST /jobs status never depends on how far the
// job got by the time the handler answers.
type admission uint8

const (
	admitQueued   admission = iota // enqueued for a worker: it leads its computation
	admitCached                    // born done from the result cache
	admitFollower                  // attached to an identical in-flight leader
)

// Job is one unit of work owned by the Service. Its lifecycle is one
// rule, applied under mu: queued → running (tryStart), running → claimed
// (claim), and one terminal transition (finish) that the first caller
// wins. A claimed job can be ended only by its worker's done transition,
// so whatever a worker publishes after claim belongs to a job that ends
// done, and a job canceled or expired first publishes nothing.
type Job struct {
	mu sync.Mutex

	id       string
	spec     JobSpec
	svc      *Service // settles the job when it ends
	admitted admission
	state    JobState
	// claimed marks a running job whose worker is publishing its result
	// (cache, WAL, counters): no transition but the worker's done can end
	// it. It still reads as running.
	claimed bool
	cached  bool
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
	// stopExpiry unregisters the deadline hook (expire) from ctx; nil for
	// a cache hit, which has none.
	stopExpiry func() bool
	done       chan struct{} // closed once a terminal job is settled

	// leader is a follower's in-flight leader, and followers a leader's
	// attached followers; both are guarded by svc.mu and cleared when
	// either side settles.
	leader    *Job
	followers []*Job

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

// tryStart moves a queued job to running. It refuses a job that has
// ended, or whose context has (its deadline hook ends it). Starting an
// anytime job unregisters the hook: a running anytime job's deadline
// starts the grace instead (see runJob), within which its worker may
// serve the best checkpoint. If the hook has already fired, the job
// does not start.
func (j *Job) tryStart(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued || j.ctx.Err() != nil || (j.spec.Anytime && !j.stopExpiry()) {
		return false
	}
	j.state = JobRunning
	j.started = now
	j.hub.publish(JobEvent{Type: "state", State: JobRunning})
	return true
}

// claim moves a running job to claimed; its worker calls it before it
// caches, persists or counts the result. It fails if the job has ended,
// and for a job that is not anytime also once its context has: that
// job's deadline hook is about to cancel it, and a result returning
// just past the deadline must not win the race against it.
func (j *Job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobRunning || j.claimed || (!j.spec.Anytime && j.ctx.Err() != nil) {
		return false
	}
	j.claimed = true
	return true
}

// finish is the terminal transition. It wins if the job has not ended
// and the caller holds the job's claim exactly when there is one: an
// unclaimed job ends by whoever comes first (its admission as a cache
// hit, its leader's outcome, Cancel, its deadline hook, its worker's
// failure), a claimed one only by its claimant, the worker, with done.
// A loser (a computation completing after its job was canceled, a
// deadline firing while the result is published) changes nothing. A
// job admitted as a cache hit or as a follower reads cached unless it
// ends canceled: its outcome was served, not computed. The winner
// settles the job before finish returns.
func (j *Job) finish(now time.Time, state JobState, res *JobResult, errMsg string, claimant bool) bool {
	j.mu.Lock()
	won := !j.state.terminal() && j.claimed == claimant
	if won {
		j.state = state
		j.result = res
		j.errMsg = errMsg
		j.cached = j.admitted != admitQueued && state != JobCanceled
		j.finished = now
		j.hub.publish(JobEvent{Type: "state", State: state, Cached: j.cached, Error: errMsg})
		if j.stopExpiry != nil {
			j.stopExpiry()
		}
		j.cancel() // release the context's resources
	}
	j.mu.Unlock()
	if won {
		j.svc.settle(j)
	}
	return won
}

// expire is the deadline hook: context.AfterFunc runs it on its own
// goroutine once the job's context ends, and it cancels the job with the
// context's error.
func (j *Job) expire() {
	j.finish(time.Now(), JobCanceled, nil, j.ctx.Err().Error(), false)
}

// followOutcome ends a follower from its settled leader's outcome: done
// and failed outcomes are shared, and a canceled leader cancels the
// follower rather than silently re-running the work. It reports whether
// the follower was still live to take it.
func (j *Job) followOutcome(now time.Time, leader JobSnapshot) bool {
	if leader.State == JobCanceled {
		return j.finish(now, JobCanceled, nil, "deduplicated onto job "+leader.ID+", which was canceled", false)
	}
	return j.finish(now, leader.State, leader.Result, leader.Error, false)
}

// Cancel requests cancellation: queued and running jobs move to
// JobCanceled (a running computation stops at its next context check
// and its worker moves on; its result is discarded, neither cached nor
// counted). A job whose worker has claimed it to publish its result,
// and a terminal job, are left as they are. It reports whether this
// call performed the cancellation.
//
// The transition comes first and cancels the context itself: canceling
// the context first would let the deadline hook or the worker, woken by
// ctx.Done(), take the terminal transition with the context's error.
func (j *Job) Cancel(reason string) bool {
	return j.finish(time.Now(), JobCanceled, nil, reason, false)
}
