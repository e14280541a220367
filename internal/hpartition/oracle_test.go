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

// peelProg is the per-vertex peeling program: the H-partition peel as a
// genuine message-passing protocol, the reference the CSR peel in
// Partition is checked against.
type peelProg struct {
	t      int
	remDeg int
	class  int32
}

// step runs one round at the program's vertex, where recv[p] reports
// whether a removal notification arrived on port p. It reports whether
// the vertex is removed this round; a removed vertex sends a
// notification on every port and halts in the same round.
func (p *peelProg) step(round int, recv []bool) bool {
	for _, got := range recv {
		// One notification per port, so a neighbor reached by k parallel
		// edges decrements remDeg k times, matching the edge-degree
		// convention of remDeg.
		if got {
			p.remDeg--
		}
	}
	if p.remDeg > p.t {
		return false
	}
	p.class = int32(round)
	return true
}

// peelMsgBits is the CONGEST size of a removal notification: it carries
// no payload, so a single bit.
const peelMsgBits = 1

// runProtocol is a synchronous round loop over progs, one per vertex of
// g. Before each round it checks ctx; in the round it steps every live
// program with the notifications that arrived on its ports, delivers
// each notification a removed vertex sends along its edge to the port at
// the other end, and counts it when it is sent; after the round it
// reports the round to ctx's span observer. It returns the rounds run
// and the messages and bits sent, with an error wrapping
// dist.ErrMaxRounds when maxRounds rounds pass before every program
// halts. A graph without vertices halts in 0 rounds.
func runProtocol(ctx context.Context, g *graph.Graph, progs []peelProg, maxRounds int) (rounds int, msgs, bits int64, err error) {
	n := g.N()
	if n == 0 {
		return 0, 0, 0, nil
	}
	off, arcs := g.Offsets(), g.Arcs()
	// twin[s] is the mailbox slot of arc s's edge at its other endpoint.
	twin := make([]int32, len(arcs))
	first := make([]int32, g.M())
	for i := range first {
		first[i] = -1
	}
	for s, a := range arcs {
		if o := first[a.Edge]; o < 0 {
			first[a.Edge] = int32(s)
		} else {
			twin[s], twin[o] = o, int32(s)
		}
	}
	inbox, outbox := make([]bool, len(arcs)), make([]bool, len(arcs))
	done := make([]bool, n)
	running := n
	spans := dist.SpansFromContext(ctx)
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return round, msgs, bits, err
		}
		for v := range progs {
			if done[v] || !progs[v].step(round, inbox[off[v]:off[v+1]]) {
				continue
			}
			for s := off[v]; s < off[v+1]; s++ {
				outbox[twin[s]] = true
				msgs++
				bits += peelMsgBits
			}
			done[v] = true
			running--
		}
		inbox, outbox = outbox, inbox
		clear(outbox)
		if spans != nil {
			spans.EngineRound(round)
		}
		if running == 0 {
			return round + 1, msgs, bits, nil
		}
	}
	return maxRounds, msgs, bits, fmt.Errorf("dist: %d of %d programs still running after %d rounds: %w",
		running, n, maxRounds, dist.ErrMaxRounds)
}

// protocolPartition is Partition run as peelProg on runProtocol,
// charging the rounds and traffic the round loop reports.
func protocolPartition(ctx context.Context, g *graph.Graph, t, maxRounds int, cost *dist.Cost) (*Result, error) {
	if t < 0 {
		return nil, fmt.Errorf("hpartition: negative threshold %d", t)
	}
	progs := make([]peelProg, g.N())
	for v := range progs {
		progs[v] = peelProg{t: t, remDeg: g.Degree(int32(v))}
	}
	rounds, msgs, bits, err := runProtocol(ctx, g, progs, maxRounds)
	cost.Charge(rounds, "hpartition/peel")
	cost.ChargeMessages(msgs, bits, "hpartition/peel")
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

// TestPartitionMatchesProtocol checks the CSR peel against the
// message-passing program on runProtocol over a grid of graphs,
// thresholds and round budgets: same classes, same charged rounds,
// messages and bits, same error text and error identity, the same rounds
// seen by a span observer (a stalled peel's idle rounds excepted); and,
// where the peel succeeds, the same forest labels as orientation plus
// OutEdges.
func TestPartitionMatchesProtocol(t *testing.T) {
	cases, peeled, exhausted := 0, 0, 0
	for _, ng := range oracleGraphs() {
		g := ng.g
		for thr := 0; thr <= 14; thr++ {
			for _, budget := range []int{1, 2, 3, 5, 50, 4*g.N() + 10} {
				name := fmt.Sprintf("%s/t=%d/budget=%d", ng.name, thr, budget)
				var wantCost, gotCost dist.Cost
				wantObs, gotObs := &roundRecorder{}, &roundRecorder{}
				want, wantErr := protocolPartition(dist.WithSpans(context.Background(), wantObs), g, thr, budget, &wantCost)
				got, gotErr := Partition(dist.WithSpans(context.Background(), gotObs), g, thr, budget, &gotCost)
				cases++
				if errText(gotErr) != errText(wantErr) {
					t.Fatalf("%s: error %q, protocol %q", name, errText(gotErr), errText(wantErr))
				}
				if errors.Is(gotErr, dist.ErrMaxRounds) != errors.Is(wantErr, dist.ErrMaxRounds) {
					t.Fatalf("%s: errors.Is(ErrMaxRounds) differs: %v vs %v", name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: result %+v, protocol %+v", name, got, want)
				}
				if !reflect.DeepEqual(gotCost.Breakdown(), wantCost.Breakdown()) {
					t.Fatalf("%s: cost %+v, protocol %+v", name, gotCost.Breakdown(), wantCost.Breakdown())
				}
				if len(gotObs.rounds) > len(wantObs.rounds) ||
					!slices.Equal(gotObs.rounds, wantObs.rounds[:len(gotObs.rounds)]) ||
					got != nil && len(gotObs.rounds) != len(wantObs.rounds) {
					t.Fatalf("%s: observed rounds %v, protocol %v", name, gotObs.rounds, wantObs.rounds)
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

// cancelAt is a span observer that records every round and
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

// TestPartitionCancelMatchesProtocol cancels both peels before they start
// and at the first, a middle and the last round a span observer sees.
// Both must return context.Canceled with the same rounds and traffic
// charged, after the observer saw the same rounds.
func TestPartitionCancelMatchesProtocol(t *testing.T) {
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
				want := peelWithCancel(protocolPartition, g, thr, budget, k)
				got := peelWithCancel(Partition, g, thr, budget, k)
				if want.err != context.Canceled {
					t.Fatalf("%s: protocol returned %v, want context.Canceled", name, want.err)
				}
				if got.err != context.Canceled || got.res != nil {
					t.Fatalf("%s: returned %+v, %v; want nil, context.Canceled", name, got.res, got.err)
				}
				if !reflect.DeepEqual(got.cost, want.cost) {
					t.Fatalf("%s: cost %+v, protocol %+v", name, got.cost, want.cost)
				}
				if !slices.Equal(got.observed, want.observed) {
					t.Fatalf("%s: observed rounds %v, protocol %v", name, got.observed, want.observed)
				}
			}
		}
	}
}
