package hpartition

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
)

// peelMsg is the "I was removed this round" notification. It carries no
// payload, so its CONGEST size is a single bit.
type peelMsg struct{}

// Bits implements dist.Sized.
func (peelMsg) Bits() int { return 1 }

// peelProg is the per-vertex peeling program: the H-partition peel as a
// genuine message-passing protocol on dist.Engine, the reference the CSR
// peel in Partition is checked against.
type peelProg struct {
	t       int
	remDeg  int
	removed bool
	class   int32
}

func (p *peelProg) Step(env *dist.Env, recv []dist.Message) ([]dist.Message, bool) {
	if p.removed {
		return nil, true
	}
	for _, m := range recv {
		// Count only actual peel notifications: one per port, so a
		// neighbor reached by k parallel edges decrements remDeg k times,
		// matching the edge-degree convention of remDeg.
		if _, ok := m.(peelMsg); ok {
			p.remDeg--
		}
	}
	if p.remDeg <= p.t {
		p.removed = true
		p.class = int32(env.Round)
		// The engine delivers messages returned alongside done=true, so
		// the removal notification and the halt fit in the same round.
		return env.Broadcast(peelMsg{}), true
	}
	return nil, false
}

// enginePartition is Partition run as peelProg on dist.Engine, charging
// the rounds and traffic the engine reports.
func enginePartition(ctx context.Context, g *graph.Graph, t, maxRounds int, cost *dist.Cost) (*Result, error) {
	if t < 0 {
		return nil, fmt.Errorf("hpartition: negative threshold %d", t)
	}
	progs := make([]*peelProg, g.N())
	eng := dist.NewEngine(g, func(v int32) dist.Program {
		progs[v] = &peelProg{t: t, remDeg: g.Degree(v)}
		return progs[v]
	})
	rounds, err := eng.Run(ctx, maxRounds)
	cost.Charge(rounds, "hpartition/peel")
	cost.ChargeMessages(eng.Messages(), eng.Bits(), "hpartition/peel")
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	if err != nil {
		return nil, fmt.Errorf("hpartition: peeling stuck with t=%d: %w", t, err)
	}
	res := &Result{T: t, Class: make([]int32, g.N())}
	for v, p := range progs {
		res.Class[v] = p.class
		if int(p.class)+1 > res.NumClasses {
			res.NumClasses = int(p.class) + 1
		}
	}
	return res, nil
}

// orientLabels is ForestDecomposition as orientation plus OutEdges:
// every vertex numbers its out-edges in edge-ID order.
func orientLabels(g *graph.Graph, r *Result, cost *dist.Cost) ([]int32, error) {
	o := AcyclicOrientation(g, r, cost)
	colors := make([]int32, g.M())
	for _, ids := range OutEdges(g, o) {
		if len(ids) > r.T {
			return nil, fmt.Errorf("hpartition: out-degree %d exceeds T=%d", len(ids), r.T)
		}
		for i, id := range ids {
			colors[id] = int32(i)
		}
	}
	cost.Charge(1, "hpartition/label")
	return colors, nil
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// oracleGraphs spans the peel's shapes: empty and edgeless graphs, trees
// and forest unions that peel over several rounds, a road network,
// multigraphs whose parallel edges each count as a port, and dense
// graphs that stall below their degeneracy.
func oracleGraphs() []namedGraph {
	isolated := graph.MustNew(9, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(5, 6)})
	return []namedGraph{
		{"empty", graph.MustNew(0, nil)},
		{"single", graph.MustNew(1, nil)},
		{"isolated", isolated},
		{"tree", gen.RandomTree(300, 3)},
		{"forest-union-3", gen.ForestUnion(400, 3, 5)},
		{"forest-union-6", gen.ForestUnion(300, 6, 8)},
		{"road-40", gen.RoadNetwork(40, 40, 1)},
		{"grid-x2", gen.MultiplyEdges(gen.Grid(8, 8), 2)},
		{"line-multi-4", gen.LineMultigraph(50, 4)},
		{"K10", gen.Clique(10)},
		{"gnm", gen.Gnm(300, 1500, 2)},
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestPartitionMatchesEngine checks the CSR peel against the
// message-passing program on dist.Engine over a grid of graphs,
// thresholds and round budgets: same classes, same charged rounds,
// messages and bits, same error text and error identity, the same rounds
// seen by a span observer (a stalled peel's idle rounds excepted); and,
// where the peel succeeds, the same forest labels as orientation plus
// OutEdges.
func TestPartitionMatchesEngine(t *testing.T) {
	cases, peeled, exhausted := 0, 0, 0
	for _, ng := range oracleGraphs() {
		g := ng.g
		for thr := 0; thr <= 14; thr++ {
			for _, budget := range []int{1, 2, 3, 5, 50, 4*g.N() + 10} {
				name := fmt.Sprintf("%s/t=%d/budget=%d", ng.name, thr, budget)
				var wantCost, gotCost dist.Cost
				wantObs, gotObs := &roundRecorder{}, &roundRecorder{}
				want, wantErr := enginePartition(dist.WithSpans(context.Background(), wantObs), g, thr, budget, &wantCost)
				got, gotErr := Partition(dist.WithSpans(context.Background(), gotObs), g, thr, budget, &gotCost)
				cases++
				if errText(gotErr) != errText(wantErr) {
					t.Fatalf("%s: error %q, engine %q", name, errText(gotErr), errText(wantErr))
				}
				if errors.Is(gotErr, dist.ErrMaxRounds) != errors.Is(wantErr, dist.ErrMaxRounds) {
					t.Fatalf("%s: errors.Is(ErrMaxRounds) differs: %v vs %v", name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: result %+v, engine %+v", name, got, want)
				}
				if !reflect.DeepEqual(gotCost.Breakdown(), wantCost.Breakdown()) {
					t.Fatalf("%s: cost %+v, engine %+v", name, gotCost.Breakdown(), wantCost.Breakdown())
				}
				if len(gotObs.rounds) > len(wantObs.rounds) ||
					!slices.Equal(gotObs.rounds, wantObs.rounds[:len(gotObs.rounds)]) ||
					got != nil && len(gotObs.rounds) != len(wantObs.rounds) {
					t.Fatalf("%s: observed rounds %v, engine %v", name, gotObs.rounds, wantObs.rounds)
				}
				if got == nil {
					exhausted++
					continue
				}
				peeled++
				checkLabels(t, name, g, got)
			}
		}
	}
	if cases != 990 || peeled == 0 || exhausted == 0 {
		t.Fatalf("ran %d cases (%d peeled, %d out of rounds), want 990 of both kinds", cases, peeled, exhausted)
	}
}

// checkLabels compares ForestDecomposition with orientation plus
// OutEdges on r, and on r with T lowered below the largest out-degree,
// where both must fail with the same error after the same charges.
func checkLabels(t *testing.T, name string, g *graph.Graph, r *Result) {
	t.Helper()
	for _, T := range []int{r.T, r.T - 1, 0} {
		if T < 0 {
			continue
		}
		rr := &Result{T: T, Class: r.Class, NumClasses: r.NumClasses}
		var wantCost, gotCost dist.Cost
		want, wantErr := orientLabels(g, rr, &wantCost)
		got, gotErr := ForestDecomposition(g, rr, &gotCost)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: labels with T=%d: error %q, reference %q", name, T, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: labels with T=%d differ from orientation + OutEdges", name, T)
		}
		if !reflect.DeepEqual(gotCost.Breakdown(), wantCost.Breakdown()) {
			t.Fatalf("%s: label cost %+v, reference %+v", name, gotCost.Breakdown(), wantCost.Breakdown())
		}
	}
}

// cancelAt is a span observer that records every engine round and
// cancels its context once round k has been observed.
type cancelAt struct {
	roundRecorder
	k      int
	cancel context.CancelFunc
}

func (c *cancelAt) EngineRound(round int) {
	c.roundRecorder.EngineRound(round)
	if round == c.k {
		c.cancel()
	}
}

// canceledRun is what a peel returned under a cancelAt observer.
type canceledRun struct {
	res      *Result
	err      error
	cost     []dist.Phase
	observed []int
}

// peelWithCancel runs peel under a context that a cancelAt observer
// cancels at round k (k < 0: canceled before the peel starts).
func peelWithCancel(peel func(context.Context, *graph.Graph, int, int, *dist.Cost) (*Result, error),
	g *graph.Graph, thr, budget, k int) canceledRun {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelAt{k: k, cancel: cancel}
	if k < 0 {
		cancel()
	}
	var cost dist.Cost
	res, err := peel(dist.WithSpans(ctx, obs), g, thr, budget, &cost)
	return canceledRun{res, err, cost.Breakdown(), obs.rounds}
}

// TestPartitionCancelMatchesEngine cancels both peels before they start
// and at the first, a middle and the last round a span observer sees.
// Both must return context.Canceled with the same rounds and traffic
// charged, after the observer saw the same rounds.
func TestPartitionCancelMatchesEngine(t *testing.T) {
	for _, ng := range oracleGraphs() {
		g := ng.g
		for thr := 0; thr <= 14; thr += 2 {
			budget := 4*g.N() + 10
			stepped := len(peelWithCancel(Partition, g, thr, budget, budget).observed)
			for _, k := range []int{-1, 0, stepped / 2, stepped - 1} {
				if k >= stepped {
					continue
				}
				name := fmt.Sprintf("%s/t=%d/cancel-at=%d", ng.name, thr, k)
				want := peelWithCancel(enginePartition, g, thr, budget, k)
				got := peelWithCancel(Partition, g, thr, budget, k)
				if want.err != context.Canceled {
					t.Fatalf("%s: engine returned %v, want context.Canceled", name, want.err)
				}
				if got.err != context.Canceled || got.res != nil {
					t.Fatalf("%s: returned %+v, %v; want nil, context.Canceled", name, got.res, got.err)
				}
				if !reflect.DeepEqual(got.cost, want.cost) {
					t.Fatalf("%s: cost %+v, engine %+v", name, got.cost, want.cost)
				}
				if !slices.Equal(got.observed, want.observed) {
					t.Fatalf("%s: observed rounds %v, engine %v", name, got.observed, want.observed)
				}
			}
		}
	}
}
