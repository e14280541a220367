package dist

import "context"

// SpanObserver is the tracing seam next to the Progress hook: where
// Progress feeds a coarse human-facing stream (the service's SSE
// progress events), a SpanObserver receives every cost-accounting
// callback the tracer needs to reconstruct a timeline — phase round
// charges, CONGEST traffic charges, and (when the observer opts in by
// sampling them) individual simulated rounds. internal/trace implements
// it; the algorithms never see it.
//
// All callbacks run synchronously on the charging goroutine, so
// implementations must be cheap, must not call back into the Cost, and
// must be safe for use from whichever single goroutine owns the Cost at
// a time (the simulation's round loop for EngineRound). A nil observer
// is never invoked; the disabled path costs one pointer check per charge
// and one per simulated round.
type SpanObserver interface {
	// PhaseCharged observes a Charge/ChargeMax to a phase: the phase's
	// name, its round total so far, and the Cost's overall round total.
	PhaseCharged(phase string, phaseRounds, totalRounds int)
	// TrafficCharged observes a ChargeMessages to a phase.
	TrafficCharged(phase string, msgs, bits int64)
	// EngineRound observes one completed round of a simulated protocol
	// (round starts at 0). hpartition.Partition calls it once per round
	// it steps; observers that only want a sample must subsample
	// internally. A stalled peel charges its idle rounds without
	// stepping them, so the observer never sees those.
	EngineRound(round int)
}

// SetSpans installs o as the Cost's span observer (nil removes it).
// Safe on a nil receiver, like every Cost method. o must not be a typed
// nil: the Cost only checks the interface against nil.
func (c *Cost) SetSpans(o SpanObserver) {
	if c != nil {
		c.spans = o
	}
}

// WithSpans returns a context carrying o, for handing a span observer
// down to code that creates its own Cost (algo.Run installs the
// context's observer on the Cost it allocates per run, and
// hpartition.Partition reports its rounds to it). o must be non-nil. A
// Progress hook already carried by ctx is preserved (both observers
// share one context key — see observerKey).
func WithSpans(ctx context.Context, o SpanObserver) context.Context {
	obs := observersFrom(ctx)
	obs.spans = o
	return context.WithValue(ctx, observerKey{}, obs)
}

// SpansFromContext returns the SpanObserver carried by ctx, or nil.
func SpansFromContext(ctx context.Context) SpanObserver {
	return observersFrom(ctx).spans
}
