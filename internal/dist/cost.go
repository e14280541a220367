package dist

import "errors"

// ErrMaxRounds is wrapped by the error a simulated protocol returns when
// its round budget runs out before every vertex has halted.
var ErrMaxRounds = errors.New("dist: max rounds exhausted before all programs halted")

// Phase is one named line of a cost breakdown: the rounds a phase of an
// algorithm consumed, plus CONGEST-style traffic counters for phases that
// simulate message passing (zero for purely local phases).
type Phase struct {
	// Name labels the phase, e.g. "hpartition/peel".
	Name string `json:"name"`
	// Rounds is the LOCAL rounds charged to this phase.
	Rounds int `json:"rounds"`
	// Messages is the number of messages sent during this phase.
	Messages int64 `json:"messages,omitempty"`
	// Bits is the total payload size of those messages in bits.
	Bits int64 `json:"bits,omitempty"`
}

// Cost accumulates the LOCAL/CONGEST complexity of a run, aggregated by
// phase label in first-charge order. The zero value is ready to use, and
// every method is safe on a nil receiver (a nil *Cost records nothing),
// so callers that do not care about accounting may pass nil. A Cost is
// not safe for concurrent use: only the goroutine that owns it charges it.
type Cost struct {
	phases []Phase
	index  map[string]int
	// progress, when set, observes every round charge (see SetProgress).
	progress Progress
	// spans, when set, observes every charge for tracing (see SetSpans).
	spans SpanObserver
}

// phase returns the accumulator for the named phase, appending it in
// first-charge order if it is new.
func (c *Cost) phase(name string) *Phase {
	if c.index == nil {
		c.index = make(map[string]int)
	}
	i, ok := c.index[name]
	if !ok {
		i = len(c.phases)
		c.index[name] = i
		c.phases = append(c.phases, Phase{Name: name})
	}
	return &c.phases[i]
}

// Charge adds rounds to the named phase. Negative charges are clamped to
// zero; a zero charge still registers the phase in the breakdown.
func (c *Cost) Charge(rounds int, phase string) {
	if c == nil {
		return
	}
	p := c.phase(phase)
	if rounds > 0 {
		p.Rounds += rounds
	}
	if c.progress != nil {
		c.progress(p.Name, p.Rounds, c.Rounds())
	}
	if c.spans != nil {
		c.spans.PhaseCharged(p.Name, p.Rounds, c.Rounds())
	}
}

// ChargeMax raises the named phase's round total to rounds if it is
// currently lower. It models sub-protocols that run concurrently in the
// LOCAL model: the phase costs as many rounds as its slowest instance,
// not the sum over instances.
func (c *Cost) ChargeMax(rounds int, phase string) {
	if c == nil {
		return
	}
	p := c.phase(phase)
	if rounds > p.Rounds {
		p.Rounds = rounds
	}
	if c.progress != nil {
		c.progress(p.Name, p.Rounds, c.Rounds())
	}
	if c.spans != nil {
		c.spans.PhaseCharged(p.Name, p.Rounds, c.Rounds())
	}
}

// ChargeMessages adds CONGEST traffic — msgs messages totalling bits
// payload bits — to the named phase without changing its round count.
func (c *Cost) ChargeMessages(msgs, bits int64, phase string) {
	if c == nil {
		return
	}
	p := c.phase(phase)
	if msgs > 0 {
		p.Messages += msgs
	}
	if bits > 0 {
		p.Bits += bits
	}
	if c.spans != nil {
		c.spans.TrafficCharged(p.Name, msgs, bits)
	}
}

// Rounds returns the total round count: the sum of the per-phase totals,
// so it always equals the sum over Breakdown.
func (c *Cost) Rounds() int {
	if c == nil {
		return 0
	}
	total := 0
	for i := range c.phases {
		total += c.phases[i].Rounds
	}
	return total
}

// Messages returns the total number of messages charged across phases.
func (c *Cost) Messages() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.phases {
		total += c.phases[i].Messages
	}
	return total
}

// Bits returns the total message payload bits charged across phases.
func (c *Cost) Bits() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.phases {
		total += c.phases[i].Bits
	}
	return total
}

// Breakdown returns a copy of the per-phase totals in first-charge order.
func (c *Cost) Breakdown() []Phase {
	if c == nil || len(c.phases) == 0 {
		return nil
	}
	out := make([]Phase, len(c.phases))
	copy(out, c.phases)
	return out
}
