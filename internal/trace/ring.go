package trace

import (
	"sort"
	"sync"

	"nwforest/internal/lru"
)

// Ring keeps finished traces pollable after their jobs have been
// forgotten, bounded both by entry count and by approximate resident
// bytes (traces carry spans and sampled round events, so entries alone
// are not a memory bound). Insertion order is eviction order. On every
// Put the trace's per-phase stats fold into cumulative totals, which
// back the /metrics per-phase series; totals are monotone — eviction
// never subtracts.
type Ring struct {
	mu     sync.Mutex
	traces *lru.Cache[string, *Recorder]
	totals map[string]*PhaseTotal
}

// PhaseTotal is the cumulative per-phase accounting across every trace
// the Ring has ever accepted.
type PhaseTotal struct {
	Name string `json:"name"`
	// Count is how many finished traces contained the phase.
	Count int64 `json:"count"`
	// SelfSeconds is the total wall-clock self time attributed to it.
	SelfSeconds float64 `json:"selfSeconds"`
	Rounds      int64   `json:"rounds"`
	Messages    int64   `json:"messages"`
	Bits        int64   `json:"bits"`
}

// RingStats is the Ring's /stats view.
type RingStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Capacity  int   `json:"capacity"`
	MaxBytes  int64 `json:"maxBytes"`
	Added     int64 `json:"added"`
	Evicted   int64 `json:"evicted"`
	RoundsCap int   `json:"roundsCap"`
}

// NewRing builds a Ring bounded to capacity entries and maxBytes
// approximate bytes (both must be positive; Put enforces them).
func NewRing(capacity int, maxBytes int64) *Ring {
	return &Ring{
		traces: lru.New[string, *Recorder](capacity, maxBytes, nil),
		totals: make(map[string]*PhaseTotal),
	}
}

// Put accepts a finished trace, folds its phases into the cumulative
// totals, and evicts the oldest traces beyond the entry and byte
// budgets (always keeping the newest entry, even if it alone exceeds
// the byte budget). Re-putting an ID replaces the old trace without
// double-counting its bytes.
func (g *Ring) Put(rec *Recorder) {
	if g == nil || rec == nil {
		return
	}
	bytes := rec.Bytes()
	phases := rec.Phases()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range phases {
		t, ok := g.totals[p.Name]
		if !ok {
			t = &PhaseTotal{Name: p.Name}
			g.totals[p.Name] = t
		}
		t.Count++
		t.SelfSeconds += p.Self.Seconds()
		t.Rounds += int64(p.Rounds)
		t.Messages += p.Messages
		t.Bits += p.Bits
	}
	g.traces.Put(rec.ID(), rec, bytes)
}

// Get returns the retained trace for a job ID.
func (g *Ring) Get(id string) (*Recorder, bool) {
	if g == nil {
		return nil, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.traces.Peek(id)
}

// PhaseTotals returns the cumulative per-phase totals, sorted by phase
// name for deterministic exposition.
func (g *Ring) PhaseTotals() []PhaseTotal {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	out := make([]PhaseTotal, 0, len(g.totals))
	for _, t := range g.totals {
		out = append(out, *t)
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats returns the Ring's counters.
func (g *Ring) Stats() RingStats {
	if g == nil {
		return RingStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return RingStats{
		Entries:   g.traces.Len(),
		Bytes:     g.traces.Bytes(),
		Capacity:  g.traces.MaxEntries(),
		MaxBytes:  g.traces.MaxBytes(),
		Added:     g.traces.Added(),
		Evicted:   g.traces.Evicted(),
		RoundsCap: maxRoundEvents,
	}
}
