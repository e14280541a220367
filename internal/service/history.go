package service

import (
	"sync"
	"time"

	"nwforest/internal/dist"
	"nwforest/internal/lru"
)

// JobRecord is one terminal job in the queryable history
// (GET /jobs/history): the ROADMAP-promised answer to "what ran here,
// and where did the time go" after the job itself has been forgotten.
// Records are append-only and survive until evicted by the history's
// count or byte budget — independently of job retention, so a
// high-churn deployment keeps an audit trail even while /jobs/{id}
// entries age out.
type JobRecord struct {
	ID        string   `json:"id"`
	GraphID   string   `json:"graph"`
	Algorithm string   `json:"algorithm"`
	Mode      string   `json:"mode,omitempty"`
	State     JobState `json:"state"`
	Cached    bool     `json:"cached,omitempty"`
	Error     string   `json:"error,omitempty"`

	CreatedAt  time.Time `json:"createdAt"`
	FinishedAt time.Time `json:"finishedAt"`
	// QueueMillis is the wall time from submission to a worker picking
	// the job up (its whole lifetime for jobs that never started);
	// RunMillis is from start to the terminal state (0 for cache hits
	// and never-started jobs).
	QueueMillis float64 `json:"queueMillis"`
	RunMillis   float64 `json:"runMillis"`

	// Cost breakdown of computed jobs: totals plus the per-phase lines
	// (absent for cache hits, followers, failures and cancellations).
	Rounds   int          `json:"rounds,omitempty"`
	Messages int64        `json:"messages,omitempty"`
	Bits     int64        `json:"bits,omitempty"`
	Phases   []dist.Phase `json:"phases,omitempty"`
	// HasTrace reports that the job's trace was recorded (it may since
	// have been evicted from the trace ring).
	HasTrace bool `json:"hasTrace,omitempty"`
}

// HistoryStats is the history ring's /stats view.
type HistoryStats struct {
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Capacity int   `json:"capacity"`
	MaxBytes int64 `json:"maxBytes"`
	Added    int64 `json:"added"`
	Evicted  int64 `json:"evicted"`
}

// jobHistory is a bounded FIFO of terminal JobRecords keyed by job ID.
// Append order is eviction order; both an entry count and an
// approximate byte budget bound it.
type jobHistory struct {
	mu   sync.Mutex
	recs *lru.Cache[string, JobRecord]
}

func newJobHistory(capacity int, maxBytes int64) *jobHistory {
	return &jobHistory{recs: lru.New[string, JobRecord](capacity, maxBytes, nil)}
}

// approxRecordBytes estimates a record's resident size; the phase slice
// and strings dominate.
func approxRecordBytes(r JobRecord) int64 {
	return 256 + int64(len(r.ID)+len(r.GraphID)+len(r.Algorithm)+len(r.Error)) +
		int64(len(r.Phases))*96
}

// add appends a terminal record, evicting the oldest beyond the
// budgets (the newest record always survives).
func (h *jobHistory) add(r JobRecord) {
	b := approxRecordBytes(r)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs.Put(r.ID, r, b)
}

// historyFilter selects records for GET /jobs/history; zero values
// match everything.
type historyFilter struct {
	state JobState
	algo  string
	limit int
}

// list returns matching records newest-first, at most limit (0 = all
// retained).
func (h *jobHistory) list(f historyFilter) []JobRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	capHint := h.recs.Len()
	if f.limit > 0 && f.limit < capHint {
		capHint = f.limit
	}
	out := make([]JobRecord, 0, capHint)
	for _, r := range h.recs.NewestFirst() {
		if f.state != "" && r.State != f.state {
			continue
		}
		if f.algo != "" && r.Algorithm != f.algo {
			continue
		}
		out = append(out, r)
		if f.limit > 0 && len(out) >= f.limit {
			break
		}
	}
	return out
}

func (h *jobHistory) stats() HistoryStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistoryStats{
		Entries:  h.recs.Len(),
		Bytes:    h.recs.Bytes(),
		Capacity: h.recs.MaxEntries(),
		MaxBytes: h.recs.MaxBytes(),
		Added:    h.recs.Added(),
		Evicted:  h.recs.Evicted(),
	}
}
