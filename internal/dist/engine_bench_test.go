package dist_test

import (
	"context"
	"runtime"
	"testing"

	"nwforest/internal/dist"
	"nwforest/internal/gen"
)

// tickMsg is a zero-size message: boxing it into the Message interface
// costs no heap allocation, so a program built on Env.Broadcast sends it
// allocation-free.
type tickMsg struct{}

func (tickMsg) Bits() int { return 1 }

// ticker broadcasts a tick on every port each round until its budget
// runs out, reading (and ignoring) whatever arrives. It is the
// steady-state workload: every mailbox slot is written and cleared every
// round.
type ticker struct{ left int }

func (p *ticker) Step(env *dist.Env, recv []dist.Message) ([]dist.Message, bool) {
	if p.left <= 0 {
		return nil, true
	}
	p.left--
	return env.Broadcast(tickMsg{}), p.left == 0
}

// mallocProbe is a span observer that reads the heap's malloc count at
// the ends of two engine rounds. Its MemStats is preallocated, so the
// probe itself allocates nothing.
type mallocProbe struct {
	from, to   int // rounds whose ends are sampled
	start, end uint64
	ms         runtime.MemStats
}

func (p *mallocProbe) PhaseCharged(string, int, int)       {}
func (p *mallocProbe) TrafficCharged(string, int64, int64) {}

func (p *mallocProbe) EngineRound(round int) {
	if round != p.from && round != p.to {
		return
	}
	runtime.ReadMemStats(&p.ms)
	if round == p.from {
		p.start = p.ms.Mallocs
	} else {
		p.end = p.ms.Mallocs
	}
}

// TestEngineSteadyRoundsZeroAlloc enforces the zero-alloc invariant the
// benchmark below only reports: the 100 rounds between the ends of
// rounds 1 and 101 of one Run must cost (essentially) no allocations.
// Counting inside the Run leaves out its one-time set-up (shard bounds,
// parallel worker spawn), which is allowed and whose malloc count varies
// from Run to Run. Allocations are counted with runtime.ReadMemStats
// rather than testing.AllocsPerRun, because AllocsPerRun pins GOMAXPROCS
// to 1 and would silently collapse the Parallel mode onto the sequential
// path — the parallel round loop must be the thing under test.
func TestEngineSteadyRoundsZeroAlloc(t *testing.T) {
	g := gen.MultiplyEdges(gen.Gnm(3000, 9000, 5), 2)
	for _, tc := range []struct {
		name string
		mode dist.Mode
	}{
		{"sequential", dist.Sequential},
		{"parallel", dist.Parallel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("race instrumentation allocates in the background; the non-race run enforces this")
			}
			if tc.mode == dist.Parallel && runtime.GOMAXPROCS(0) < 2 {
				t.Skip("needs GOMAXPROCS >= 2 to exercise the parallel round loop")
			}
			best := ^uint64(0)
			for attempt := 0; attempt < 3; attempt++ {
				eng := dist.NewEngine(g, func(v int32) dist.Program {
					return &ticker{left: 1 << 30} // never halts: every round is steady-state
				})
				eng.SetMode(tc.mode)
				probe := &mallocProbe{from: 1, to: 101}
				runtime.GC()
				// Returns ErrMaxRounds by design; the rounds still execute.
				eng.Run(dist.WithSpans(context.Background(), probe), probe.to+1)
				best = min(best, probe.end-probe.start)
			}
			// Allow a couple of one-off runtime-internal allocations
			// (sudog warm-up and the like); 100 rounds of even one
			// allocation every few rounds would blow far past this.
			if best > 2 {
				t.Errorf("steady-state rounds allocate: %d mallocs over 100 rounds, want <= 2", best)
			}
		})
	}
}

// BenchmarkEngineSteadyRounds measures one full synchronous round (every
// vertex broadcasting on every port) per op. The engine's invariant is 0
// allocs/op in steady state: mailboxes, out buffers and worker scratch
// are preallocated from the graph's CSR degrees and recycled by swap.
// Engine construction happens before the timer starts, and the one-time
// worker setup of the parallel path amortizes to zero over b.N rounds.
func BenchmarkEngineSteadyRounds(b *testing.B) {
	g := gen.MultiplyEdges(gen.Gnm(4096, 16384, 7), 2)
	for _, bc := range []struct {
		name string
		mode dist.Mode
	}{
		{"sequential", dist.Sequential},
		{"parallel", dist.Parallel},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := dist.NewEngine(g, func(v int32) dist.Program {
				return &ticker{left: b.N}
			})
			eng.SetMode(bc.mode)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := eng.Run(context.Background(), b.N+1); err != nil {
				b.Fatal(err)
			}
		})
	}
}
