package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nwforest/internal/dist"
)

// finishedRecorder builds a sealed trace for job id with one phase
// charged the given rounds.
func finishedRecorder(id string, rounds int) *Recorder {
	rec := NewRecorder(id, epoch, 0)
	rec.Finish(epoch.Add(time.Millisecond), []dist.Phase{
		{Name: "peel", Rounds: rounds, Messages: int64(rounds) * 2, Bits: int64(rounds) * 16},
	})
	return rec
}

func TestRingEvictsByCount(t *testing.T) {
	g := NewRing(3, 1<<30)
	for i := 1; i <= 5; i++ {
		g.Put(finishedRecorder(fmt.Sprintf("j-%d", i), i))
	}
	st := g.Stats()
	if st.Entries != 3 || st.Added != 5 || st.Evicted != 2 {
		t.Fatalf("stats = %+v, want 3 entries, 5 added, 2 evicted", st)
	}
	if _, ok := g.Get("j-1"); ok {
		t.Fatal("oldest trace must be evicted")
	}
	if _, ok := g.Get("j-5"); !ok {
		t.Fatal("newest trace must be retained")
	}
	// Totals are monotone: eviction never subtracts. 1+2+3+4+5 rounds.
	totals := g.PhaseTotals()
	if len(totals) != 1 || totals[0].Rounds != 15 || totals[0].Count != 5 {
		t.Fatalf("totals = %+v, want peel rounds=15 count=5 across all ever-added traces", totals)
	}
}

func TestRingEvictsByBytes(t *testing.T) {
	one := finishedRecorder("j-1", 1)
	g := NewRing(1000, one.Bytes()+1) // room for one trace, never two
	g.Put(one)
	g.Put(finishedRecorder("j-2", 1))
	st := g.Stats()
	if st.Entries != 1 || st.Evicted != 1 {
		t.Fatalf("stats = %+v, want the byte budget to keep exactly one", st)
	}
	if _, ok := g.Get("j-2"); !ok {
		t.Fatal("newest trace must survive byte eviction")
	}
	// A single oversized trace is still kept: the newest entry always
	// survives so a just-finished job's trace is never unqueryable.
	big := NewRing(1000, 1)
	big.Put(finishedRecorder("j-3", 1))
	if st := big.Stats(); st.Entries != 1 {
		t.Fatalf("oversized sole trace evicted: %+v", st)
	}
}

func TestRingRePutReplacesWithoutDoubleCounting(t *testing.T) {
	g := NewRing(10, 1<<30)
	g.Put(finishedRecorder("j-1", 1))
	bytesBefore := g.Stats().Bytes
	g.Put(finishedRecorder("j-1", 1))
	st := g.Stats()
	if st.Entries != 1 || st.Bytes != bytesBefore {
		t.Fatalf("re-put changed accounting: %+v (bytes before %d)", st, bytesBefore)
	}
}

func TestNilRingIsSafe(t *testing.T) {
	var g *Ring
	g.Put(finishedRecorder("j-1", 1))
	if _, ok := g.Get("j-1"); ok {
		t.Fatal("nil ring returned a trace")
	}
	if g.PhaseTotals() != nil || g.Stats() != (RingStats{}) {
		t.Fatal("nil ring must report empty totals and zero stats")
	}
}

// TestRingConcurrent hammers Put/Get/PhaseTotals/Stats from many
// goroutines (run under -race in CI) and then checks the ring's
// accounting invariants survived the interleaving.
func TestRingConcurrent(t *testing.T) {
	const (
		writers   = 8
		perWriter = 200
		capacity  = 32
	)
	probe := finishedRecorder("probe", 1)
	g := NewRing(capacity, probe.Bytes()*capacity/2) // byte budget binds first
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				g.Put(finishedRecorder(fmt.Sprintf("j-%d-%d", w, i), 1))
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				g.Get(fmt.Sprintf("j-%d-%d", w, i))
				if i%32 == 0 {
					g.PhaseTotals()
					g.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats()
	if st.Entries > capacity {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, capacity)
	}
	if st.Entries > 1 && st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d with %d entries", st.Bytes, st.MaxBytes, st.Entries)
	}
	if st.Added != writers*perWriter {
		t.Fatalf("added = %d, want %d", st.Added, writers*perWriter)
	}
	if st.Added != st.Evicted+int64(st.Entries) {
		t.Fatalf("accounting leak: added %d != evicted %d + entries %d", st.Added, st.Evicted, st.Entries)
	}
	totals := g.PhaseTotals()
	if len(totals) != 1 || totals[0].Count != int64(writers*perWriter) {
		t.Fatalf("totals = %+v, want every put counted exactly once", totals)
	}
}
