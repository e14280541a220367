package service

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nwforest/internal/trace"
)

// TestProgressEventOrderingUnderConcurrency: PhaseCharged publishes inside
// the same critical section that updates lastPhase/lastRounds, so even
// with multiple goroutines charging rounds the published stream stays
// coherent — a "phase" event always switches to a new phase and a
// "progress" event always continues the phase of the event right before
// it. (The documented convention is one goroutine per cost account, but
// the hub must not corrupt its stream if a future charge site breaks
// it.) Every call also reaches the job's span recorder.
func TestProgressEventOrderingUnderConcurrency(t *testing.T) {
	h := newEventHub()
	h.rec = trace.NewRecorder("j-1", time.Now(), 1)
	const workers, rounds = 4, 50 // well under maxEventHistory, so nothing is dropped
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			phase := fmt.Sprintf("phase-%d", w)
			for r := 1; r <= rounds; r++ {
				// Advance the total by a full quantum so same-phase calls
				// publish rather than coalesce away.
				h.PhaseCharged(phase, r, r*progressQuantum)
				h.TrafficCharged(phase, 1, 8)
				h.EngineRound(r)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range h.rec.Phases() {
		if p.Rounds != rounds || p.Messages != rounds || p.Bits != 8*rounds {
			t.Fatalf("recorder phase %+v, want %d rounds, %d messages, %d bits", p, rounds, rounds, 8*rounds)
		}
	}
	if got := len(h.rec.Phases()); got != workers {
		t.Fatalf("recorder saw %d phases, want %d", got, workers)
	}
	evs := h.since(0)
	if len(evs) == 0 {
		t.Fatal("no events published")
	}
	for i, ev := range evs {
		switch ev.Type {
		case "phase":
			if i > 0 && evs[i-1].Phase == ev.Phase {
				t.Fatalf("event %d: redundant phase event for %q", i, ev.Phase)
			}
		case "progress":
			if i == 0 || evs[i-1].Phase != ev.Phase {
				t.Fatalf("event %d: progress for %q detached from its phase (previous: %+v)", i, ev.Phase, evs[max(i-1, 0)])
			}
		default:
			t.Fatalf("event %d: unexpected type %q", i, ev.Type)
		}
		if int64(i)+1 != ev.Seq {
			t.Fatalf("event %d: sequence gap (seq %d)", i, ev.Seq)
		}
	}
}

// TestLateSubscriberReplayBounds: once more than maxEventHistory events
// are published, a subscriber replaying from the start gets exactly the
// newest maxEventHistory events with contiguous sequence numbers ending
// at the latest one — the front of history ages out, the tail never
// lies about where it is.
func TestLateSubscriberReplayBounds(t *testing.T) {
	h := newEventHub()
	const total = maxEventHistory + 300
	for i := 0; i < total; i++ {
		h.publish(JobEvent{Type: "phase", Phase: fmt.Sprintf("p%d", i)})
	}
	evs := h.since(0)
	if len(evs) != maxEventHistory {
		t.Fatalf("late subscriber got %d events, want exactly maxEventHistory=%d", len(evs), maxEventHistory)
	}
	wantFirst := int64(total - maxEventHistory + 1)
	for i, ev := range evs {
		if ev.Seq != wantFirst+int64(i) {
			t.Fatalf("event %d: seq %d, want %d (contiguous replay)", i, ev.Seq, wantFirst+int64(i))
		}
	}
	if evs[len(evs)-1].Seq != int64(total) {
		t.Fatalf("replay ends at seq %d, want the latest %d", evs[len(evs)-1].Seq, total)
	}
	// Resuming from mid-history and from beyond the end behave.
	mid := evs[len(evs)/2].Seq
	rest := h.since(mid)
	if len(rest) != int(int64(total)-mid) || rest[0].Seq != mid+1 {
		t.Fatalf("since(%d) returned %d events starting at %d", mid, len(rest), rest[0].Seq)
	}
	if got := h.since(int64(total)); got != nil {
		t.Fatalf("since(latest) = %d events, want none", len(got))
	}
}

// TestLateSubscriberReplayBoundsConcurrent interleaves publishers with a
// replaying reader (run under -race): every snapshot the reader takes
// must be bounded by maxEventHistory and internally contiguous.
func TestLateSubscriberReplayBoundsConcurrent(t *testing.T) {
	h := newEventHub()
	const writers, perWriter = 4, 600 // writers*perWriter > maxEventHistory
	var writersWG sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := h.since(last)
			if len(evs) > maxEventHistory {
				t.Errorf("snapshot of %d events exceeds maxEventHistory", len(evs))
				return
			}
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq != evs[i-1].Seq+1 {
					t.Errorf("snapshot gap: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
					return
				}
			}
			if len(evs) > 0 {
				if evs[0].Seq <= last {
					t.Errorf("replay re-delivered seq %d (cursor %d)", evs[0].Seq, last)
					return
				}
				last = evs[len(evs)-1].Seq
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				h.publish(JobEvent{Type: "phase", Phase: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	<-readerDone
}
