package dist

import "context"

// Observer watches a Cost as it accrues: every phase round charge,
// every CONGEST traffic charge, and every round a simulated protocol
// steps. It is the one seam through which callers follow a run without
// the algorithms knowing about them. The service's per-job event hub
// implements it, turning the charges into SSE progress events and
// forwarding each call to the job's trace recorder; the big benchmark
// tier attaches a trace recorder directly and reads its phase times.
//
// All callbacks run synchronously on the charging goroutine, so
// implementations must be cheap, must not call back into the Cost, and
// must be safe for use from whichever single goroutine owns the Cost at
// a time (the simulation's round loop for EngineRound). A nil observer
// is never invoked; without one a charge costs one nil check, and so
// does a simulated round.
type Observer interface {
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

// SetObserver installs o as the Cost's observer (nil removes it). Safe
// on a nil receiver, like every Cost method. o must not be a typed nil:
// the Cost only checks the interface against nil.
func (c *Cost) SetObserver(o Observer) {
	if c != nil {
		c.obs = o
	}
}

// observerKey is the context key WithObserver stores an Observer under.
type observerKey struct{}

// WithObserver returns a context carrying o, for handing an observer
// down to code that creates its own Cost (algo.Run installs the
// context's observer on the Cost it allocates per run, and
// hpartition.Partition reports its rounds to it). o must be non-nil.
func WithObserver(ctx context.Context, o Observer) context.Context {
	return context.WithValue(ctx, observerKey{}, o)
}

// ObserverFromContext returns the Observer carried by ctx, or nil.
func ObserverFromContext(ctx context.Context) Observer {
	o, _ := ctx.Value(observerKey{}).(Observer)
	return o
}
