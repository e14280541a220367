package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Track (tid) assignments in the export: the job's lifecycle spans nest
// on one track, the algorithm phases (and sampled round instants) sit
// on a second.
const (
	tidJob    = 1
	tidPhases = 2
)

// traceEvent is one entry of the Chrome trace-event format's JSON array
// ("JSON Object Format", the shape Perfetto and chrome://tracing load
// directly). Ts and Dur are microseconds; Ph selects the event type
// ("X" complete span, "i" instant, "M" metadata).
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   *int64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// export is the top-level trace-event JSON object.
type export struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// micros renders t relative to the trace epoch in microseconds,
// clamping negatives (a span recorded as starting before the epoch) to
// zero so the export never carries a negative timestamp.
func (r *Recorder) micros(t time.Time) int64 {
	us := t.Sub(r.start).Microseconds()
	if us < 0 {
		us = 0
	}
	return us
}

// durPtr boxes a duration in microseconds for the omitempty-able Dur
// field; complete events always carry it, even when zero.
func durPtr(d time.Duration) *int64 {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	return &us
}

// WriteJSON exports the trace as Chrome trace-event JSON: metadata
// naming the process and tracks, one complete span per recorded
// lifecycle interval on the job track, one complete span per cost
// phase on the phases track (ts = first charge, dur = accumulated self
// time, args = rounds/messages/bits), and one instant event per sampled
// simulated round. The output loads directly in Perfetto (ui.perfetto.dev)
// and chrome://tracing.
func (r *Recorder) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	events := make([]traceEvent, 0, 3+len(r.spans)+len(r.phases)+len(r.rounds))
	events = append(events,
		traceEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
			Args: map[string]any{"name": "nwserve job " + r.id}},
		traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tidJob,
			Args: map[string]any{"name": "job"}},
		traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tidPhases,
			Args: map[string]any{"name": "phases"}},
	)
	for _, s := range r.spans {
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: r.micros(s.Start), Dur: durPtr(s.End.Sub(s.Start)),
			Pid: 1, Tid: tidJob, Args: s.Args,
		})
	}
	for _, p := range r.phases {
		events = append(events, traceEvent{
			Name: p.Name, Cat: "phase", Ph: "X",
			Ts: r.micros(p.First), Dur: durPtr(p.Self),
			Pid: 1, Tid: tidPhases,
			Args: map[string]any{
				"rounds":   p.Rounds,
				"messages": p.Messages,
				"bits":     p.Bits,
			},
		})
	}
	for _, ev := range r.rounds {
		events = append(events, traceEvent{
			Name: "round", Cat: "round", Ph: "i",
			Ts: r.micros(ev.at), Pid: 1, Tid: tidPhases, Scope: "t",
			Args: map[string]any{"round": ev.round},
		})
	}
	if r.roundsDropped > 0 {
		events = append(events, traceEvent{
			Name: "rounds dropped", Cat: "round", Ph: "i",
			Ts: r.micros(r.end), Pid: 1, Tid: tidPhases, Scope: "t",
			Args: map[string]any{"dropped": r.roundsDropped},
		})
	}
	r.mu.Unlock()

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(export{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ValidateTraceEvents checks that payload is well-formed Chrome
// trace-event JSON of the shape WriteJSON produces: a top-level object
// with a traceEvents array whose every entry names an event, uses a
// known phase type, and carries the fields that type requires (ts/pid/
// tid on all non-metadata events, a non-negative dur on complete
// events, a scope on instant events). It backs the golden tests and
// cmd/obscheck; serving never calls it.
func ValidateTraceEvents(payload []byte) error {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(payload, &doc); err != nil {
		return fmt.Errorf("trace: not a trace-event JSON object: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("trace: missing traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("trace: event %d: %s", i, fmt.Sprintf(format, args...))
		}
		var name, ph string
		if raw, ok := ev["name"]; !ok || json.Unmarshal(raw, &name) != nil || name == "" {
			return fail("missing or empty name")
		}
		if raw, ok := ev["ph"]; !ok || json.Unmarshal(raw, &ph) != nil {
			return fail("missing ph")
		}
		switch ph {
		case "M": // metadata: needs args.name
			var args struct {
				Name string `json:"name"`
			}
			if raw, ok := ev["args"]; !ok || json.Unmarshal(raw, &args) != nil || args.Name == "" {
				return fail("metadata event without args.name")
			}
			continue
		case "X", "i", "B", "E", "b", "e", "n", "C":
		default:
			return fail("unknown phase type %q", ph)
		}
		var ts float64
		if raw, ok := ev["ts"]; !ok || json.Unmarshal(raw, &ts) != nil {
			return fail("missing ts")
		}
		if ts < 0 {
			return fail("negative ts %v", ts)
		}
		for _, req := range []string{"pid", "tid"} {
			var v float64
			if raw, ok := ev[req]; !ok || json.Unmarshal(raw, &v) != nil {
				return fail("missing %s", req)
			}
		}
		if ph == "X" {
			var dur float64
			if raw, ok := ev["dur"]; !ok || json.Unmarshal(raw, &dur) != nil {
				return fail("complete event without dur")
			}
			if dur < 0 {
				return fail("negative dur %v", dur)
			}
		}
		if ph == "i" {
			var scope string
			if raw, ok := ev["s"]; ok && json.Unmarshal(raw, &scope) == nil {
				switch scope {
				case "g", "p", "t":
				default:
					return fail("bad instant scope %q", scope)
				}
			}
		}
	}
	return nil
}
