// Package trace is the serving stack's span recorder: a timeline of
// where a job's wall time went, from the HTTP request that submitted it
// down to the individual simulated rounds of the paper's
// phase-structured algorithms. It depends on nothing in the module but
// internal/dist, whose cost breakdown it reconciles against.
//
// One Recorder accompanies each job. The service adds the coarse spans
// it owns (HTTP request, queue wait, execution); the per-phase child
// spans come for free from the existing dist.Cost charge sites — the
// Recorder implements dist.Observer (the service's event hub forwards
// every charge to it), so every Charge/ChargeMax attributes the wall
// time since the previous charge to the phase being charged, and every
// ChargeMessages attaches CONGEST traffic to it.
// Optional instant events for individual simulated rounds are recorded
// under a sampling knob (RoundEvery), bounded by maxRoundEvents.
//
// Finished traces live in a byte- and count-bounded Ring keyed by job
// ID, which also folds every finished trace into cumulative per-phase
// totals for /metrics. A trace exports as Chrome trace-event JSON
// (WriteJSON) that loads directly in Perfetto or chrome://tracing;
// ValidateTraceEvents checks that shape and backs the golden tests.
//
// Tracing off means no Recorder exists at all, and every Recorder
// method is a no-op on a nil receiver, so the hub forwards to it without
// a branch.
package trace

import (
	"sync"
	"time"

	"nwforest/internal/dist"
)

// maxRoundEvents bounds the sampled per-round instant events one trace
// retains; events beyond it are dropped (and counted), so a pathological
// round count cannot grow a trace without bound.
const maxRoundEvents = 8192

// Span is one finished interval on the job track (request, queue wait,
// execution) with optional key/value args for the export.
type Span struct {
	Name  string
	Cat   string
	Start time.Time
	End   time.Time
	Args  map[string]any
}

// PhaseStat is the per-phase aggregation of the charge stream: the
// wall-clock self time attributed to the phase, when its work began,
// and the rounds/messages/bits the cost account charged it.
type PhaseStat struct {
	Name string
	// First is when the phase's work began: the attribution anchor in
	// force at its first charge (charge sites charge after the work).
	First    time.Time
	Self     time.Duration
	Rounds   int
	Messages int64
	Bits     int64
}

// roundEvent is one sampled simulated round, recorded as an instant
// event.
type roundEvent struct {
	at    time.Time
	round int
}

// Recorder accumulates one job's trace. It is safe for concurrent use:
// the charge stream arrives on the algorithm's goroutine while the
// service adds spans from request and worker goroutines. Create one with
// NewRecorder, feed it (it implements dist.Observer), seal it with
// Finish, then export with WriteJSON.
type Recorder struct {
	mu    sync.Mutex
	id    string
	start time.Time // trace epoch: timestamps export relative to it
	clock func() time.Time

	anchor time.Time // last attribution point for phase self time
	spans  []Span
	phases []PhaseStat
	index  map[string]int

	roundEvery    int
	rounds        []roundEvent
	roundsDropped int64

	finished bool
	end      time.Time
}

// NewRecorder starts a trace for the job id at start. roundEvery is the
// round sampling knob: 0 records no round events; N > 0 records an
// instant event for every Nth round of every simulated protocol run.
func NewRecorder(id string, start time.Time, roundEvery int) *Recorder {
	if roundEvery < 0 {
		roundEvery = 0
	}
	return &Recorder{
		id:         id,
		start:      start,
		clock:      time.Now,
		index:      make(map[string]int),
		roundEvery: roundEvery,
	}
}

// setClock replaces the wall clock, for deterministic tests.
func (r *Recorder) setClock(clock func() time.Time) { r.clock = clock }

// ID returns the job ID the trace belongs to.
func (r *Recorder) ID() string { return r.id }

// AddSpan records a finished interval on the job track. Spans may be
// added even after Finish — the HTTP request span for a cache-hit job
// completes after the job itself has finished.
func (r *Recorder) AddSpan(name, cat string, start, end time.Time, args map[string]any) {
	if r == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Cat: cat, Start: start, End: end, Args: args})
	r.mu.Unlock()
}

// BeginExecution anchors the phase-attribution clock at t: the wall time
// from t to the first charge belongs to the first phase, not to the
// queue wait before it. The service calls it when a worker starts the
// job.
func (r *Recorder) BeginExecution(t time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.anchor = t
	r.mu.Unlock()
}

// phaseLocked returns the accumulator for the named phase, appending it
// in first-charge order if it is new; a new phase's First is the
// current attribution anchor (falling back to now when execution never
// anchored). The caller holds r.mu.
func (r *Recorder) phaseLocked(name string, now time.Time) *PhaseStat {
	i, ok := r.index[name]
	if !ok {
		first := r.anchor
		if first.IsZero() {
			first = now
		}
		i = len(r.phases)
		r.index[name] = i
		r.phases = append(r.phases, PhaseStat{Name: name, First: first})
	}
	return &r.phases[i]
}

// PhaseCharged implements dist.Observer: the wall time since the
// previous charge (or since BeginExecution for the first one) is
// attributed to the phase being charged — charge sites charge a phase
// when its work completes, so that interval is the phase's self time.
func (r *Recorder) PhaseCharged(phase string, phaseRounds, totalRounds int) {
	if r == nil {
		return
	}
	now := r.clock()
	r.mu.Lock()
	p := r.phaseLocked(phase, now)
	if !r.anchor.IsZero() && now.After(r.anchor) {
		p.Self += now.Sub(r.anchor)
	}
	r.anchor = now
	if phaseRounds > p.Rounds {
		p.Rounds = phaseRounds
	}
	r.mu.Unlock()
}

// TrafficCharged implements dist.Observer: CONGEST traffic attaches
// to its phase without moving the attribution clock.
func (r *Recorder) TrafficCharged(phase string, msgs, bits int64) {
	if r == nil {
		return
	}
	now := r.clock()
	r.mu.Lock()
	p := r.phaseLocked(phase, now)
	if msgs > 0 {
		p.Messages += msgs
	}
	if bits > 0 {
		p.Bits += bits
	}
	r.mu.Unlock()
}

// EngineRound implements dist.Observer: when sampling is on, every
// RoundEvery-th simulated round becomes an instant event on the phase
// track. The sampling check runs before the lock so tracing with
// sampling off adds no contention to a simulated round loop.
func (r *Recorder) EngineRound(round int) {
	if r == nil || r.roundEvery <= 0 || round%r.roundEvery != 0 {
		return
	}
	now := r.clock()
	r.mu.Lock()
	if len(r.rounds) < maxRoundEvents {
		r.rounds = append(r.rounds, roundEvent{at: now, round: round})
	} else {
		r.roundsDropped++
	}
	r.mu.Unlock()
}

// Finish seals the trace at end and reconciles the live charge stream
// with the authoritative cost breakdown: every breakdown phase is
// guaranteed a span (phases charged only through ChargeMessages, or
// charged while the recorder was not yet attached, appear with zero
// self time) and its rounds/messages/bits are overwritten with the
// breakdown's totals. phases may be nil (failed or canceled jobs keep
// whatever the live stream saw). Finish is idempotent; the first call
// wins.
func (r *Recorder) Finish(end time.Time, phases []dist.Phase) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	r.finished = true
	r.end = end
	for _, bp := range phases {
		i, ok := r.index[bp.Name]
		if !ok {
			i = len(r.phases)
			r.index[bp.Name] = i
			r.phases = append(r.phases, PhaseStat{Name: bp.Name, First: end})
		}
		p := &r.phases[i]
		p.Rounds = bp.Rounds
		p.Messages = bp.Messages
		p.Bits = bp.Bits
	}
}

// Phases returns a copy of the per-phase stats in first-charge order.
func (r *Recorder) Phases() []PhaseStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PhaseStat, len(r.phases))
	copy(out, r.phases)
	return out
}

// Bytes approximates the trace's resident size, for the Ring's byte
// budget. Spans added after a trace enters the Ring (the HTTP span of a
// cache-hit job) are a small constant the budget tolerates.
func (r *Recorder) Bytes() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	const spanCost, phaseCost, roundCost, overhead = 160, 120, 32, 256
	b := int64(overhead)
	b += int64(len(r.spans)) * spanCost
	for _, s := range r.spans {
		b += int64(len(s.Name)) + int64(len(s.Args))*48
	}
	b += int64(len(r.phases)) * phaseCost
	b += int64(len(r.rounds)) * roundCost
	return b
}
