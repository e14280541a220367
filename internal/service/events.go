package service

import (
	"sync"

	"nwforest/internal/dynamic"
	"nwforest/internal/trace"
)

// JobEvent is one entry in a job's progress stream, served over SSE by
// GET /jobs/{id}/events. Events are sequence-numbered per job so a
// subscriber can replay history and then follow live without gaps.
type JobEvent struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"` // "state", "phase", "progress", "repair"
	// State events mark lifecycle transitions (running, done, failed,
	// canceled); terminal ones carry Cached and Error.
	State  JobState `json:"state,omitempty"`
	Cached bool     `json:"cached,omitempty"`
	Error  string   `json:"error,omitempty"`
	// Phase/progress events report the distributed cost accounting as it
	// accrues: the phase being charged, its rounds so far, and the run's
	// cumulative round total.
	Phase       string `json:"phase,omitempty"`
	PhaseRounds int    `json:"phaseRounds,omitempty"`
	Rounds      int    `json:"rounds,omitempty"`
	// Repair summarizes an incremental job's maintainer work (fast vs
	// augmenting repairs, extra colors, rebuilds).
	Repair *dynamic.Stats `json:"repair,omitempty"`
}

const (
	// progressQuantum coalesces round-charge events: between phase
	// changes, a "progress" event is published only when the cumulative
	// round total has advanced by at least this much since the last
	// published event. Charge sites are per-phase-coarse already, so this
	// is a backstop against chatty future algorithms, not a hot path.
	progressQuantum = 64
	// maxEventHistory bounds the replayable per-job history; a subscriber
	// arriving after overflow sees the most recent events only.
	maxEventHistory = 1024
)

// eventHub is one job's event history plus its live subscribers. Publish
// never blocks: subscribers get a level-triggered nudge and drain the
// history themselves via since().
//
// The hub is also the job's dist.Observer: the service installs it on
// the job's cost account, it turns round charges into "phase" and
// "progress" events, and it forwards every call to rec, the job's span
// recorder (nil when tracing is off; its methods are nil-safe).
type eventHub struct {
	mu         sync.Mutex
	events     []JobEvent
	dropped    int64 // events aged out of the front of history
	seq        int64
	lastPhase  string
	lastRounds int
	subs       map[chan struct{}]struct{}
	rec        *trace.Recorder
}

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[chan struct{}]struct{})}
}

// publish appends ev to the history, assigns its sequence number, and
// nudges every subscriber.
func (h *eventHub) publish(ev JobEvent) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.publishLocked(ev)
	h.mu.Unlock()
}

// publishLocked implements publish; the caller holds h.mu.
func (h *eventHub) publishLocked(ev JobEvent) {
	h.seq++
	ev.Seq = h.seq
	h.events = append(h.events, ev)
	if excess := len(h.events) - maxEventHistory; excess > 0 {
		h.events = append(h.events[:0], h.events[excess:]...)
		h.dropped += int64(excess)
	}
	for ch := range h.subs {
		select {
		case ch <- struct{}{}:
		default: // already nudged; it will drain everything new
		}
	}
}

// PhaseCharged implements dist.Observer: it turns per-phase round
// charges into "phase" (first charge of a phase) and coalesced
// "progress" events, then forwards the charge to the span recorder. The
// publish happens inside the same critical section that updates
// lastPhase/lastRounds, so even with concurrent charge sites the stream
// stays coherent: a "phase" event always switches phases and a
// "progress" event always continues the phase of the event before it.
func (h *eventHub) PhaseCharged(phase string, phaseRounds, totalRounds int) {
	h.mu.Lock()
	newPhase := phase != h.lastPhase
	if newPhase || totalRounds-h.lastRounds >= progressQuantum {
		h.lastPhase, h.lastRounds = phase, totalRounds
		typ := "progress"
		if newPhase {
			typ = "phase"
		}
		h.publishLocked(JobEvent{Type: typ, Phase: phase, PhaseRounds: phaseRounds, Rounds: totalRounds})
	}
	h.mu.Unlock()
	h.rec.PhaseCharged(phase, phaseRounds, totalRounds)
}

// TrafficCharged implements dist.Observer: traffic reaches only the
// span recorder.
func (h *eventHub) TrafficCharged(phase string, msgs, bits int64) {
	h.rec.TrafficCharged(phase, msgs, bits)
}

// EngineRound implements dist.Observer: simulated rounds reach only the
// span recorder, which samples them.
func (h *eventHub) EngineRound(round int) { h.rec.EngineRound(round) }

// since returns a copy of every retained event with Seq > seq.
func (h *eventHub) since(seq int64) []JobEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	// events[i].Seq == h.dropped + int64(i) + 1
	start := seq - h.dropped
	if start < 0 {
		start = 0
	}
	if start >= int64(len(h.events)) {
		return nil
	}
	out := make([]JobEvent, int64(len(h.events))-start)
	copy(out, h.events[start:])
	return out
}

// subscribe registers a nudge channel; the returned func unsubscribes.
func (h *eventHub) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.mu.Unlock()
	}
}
