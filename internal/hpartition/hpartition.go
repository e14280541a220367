// Package hpartition implements Theorem 2.1 of the paper: the H-partition
// of Barenboim-Elkin [BE10] and its four corollaries — degree peeling, the
// acyclic t-orientation, the 3t-star-forest decomposition (via
// Cole-Vishkin tree coloring) and the t-list-forest decomposition.
//
// For t = floor((2+eps)·alpha*), the peeling removes an eps/(2+eps)
// fraction of the remaining vertices per round, so it terminates in
// O(log n / eps) rounds. The peeling is simulated round by round on the
// graph's CSR arrays, charging the rounds and the 1-bit notifications of
// the message-passing protocol; the tests check it against that protocol
// run as per-vertex programs over per-port mailboxes. The corollaries
// are O(1)- or O(log* n)-round local computations charged to the cost
// tracker.
package hpartition

import (
	"context"
	"fmt"
	"math"

	"nwforest/internal/dist"
	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// Result is an H-partition: Class[v] is the peel round in which v was
// removed; every vertex has at most T neighbors in its own or later
// classes.
type Result struct {
	T          int
	Class      []int32
	NumClasses int
}

// Threshold returns the peeling threshold t = floor((2+eps)*alphaStar).
func Threshold(alphaStar int, eps float64) int {
	return int(math.Floor((2 + eps) * float64(alphaStar)))
}

// Partition peels g with threshold t. It fails if the graph does not
// empty within maxRounds rounds (t below the graph's peeling number).
// The consumed rounds are charged to cost. Cancellation of ctx stops
// the peel at a round boundary and returns ctx.Err() unwrapped, so
// doubling-probe callers can tell "t too small" from "caller gave up".
//
// The peel is the synchronous LOCAL protocol simulated round by round on
// the CSR: in round r every remaining vertex with at most t remaining
// neighbors (counted per port, so parallel edges count separately) is
// removed and sends a 1-bit notification on each of its ports. Only the
// previous round's removals and their neighbors are touched, so the
// whole peel is O(n + m). A SpanObserver carried by ctx sees each
// stepped round through EngineRound.
func Partition(ctx context.Context, g *graph.Graph, t, maxRounds int, cost *dist.Cost) (*Result, error) {
	if t < 0 {
		return nil, fmt.Errorf("hpartition: negative threshold %d", t)
	}
	n := g.N()
	off, arcs := g.Offsets(), g.Arcs()
	res := &Result{T: t, Class: make([]int32, n)}
	remDeg := make([]int32, n)
	for v := range remDeg {
		res.Class[v] = -1
		remDeg[v] = off[v+1] - off[v]
	}
	// queue holds the removed vertices in removal order; queue[lo:] is
	// the previous round's removals.
	queue := make([]int32, 0, n)
	spans := dist.SpansFromContext(ctx)
	var (
		rounds, lo int
		stuck      bool
	)
	for len(queue) < n {
		if rounds >= maxRounds {
			rounds, stuck = maxRounds, true
			break
		}
		if ctx.Err() != nil {
			break
		}
		if rounds > 0 && lo == len(queue) {
			// The last round removed nobody, so nobody was notified and
			// no later round can remove anybody: charge the idle rounds
			// of the budget without stepping them.
			rounds, stuck = maxRounds, true
			break
		}
		prev := queue[lo:]
		lo = len(queue)
		if rounds == 0 {
			for v, d := range remDeg {
				if int(d) <= t {
					res.Class[v] = 0
					queue = append(queue, int32(v))
				}
			}
		} else {
			class := int32(rounds)
			for _, u := range prev {
				for _, a := range arcs[off[u]:off[u+1]] {
					if w := a.To; res.Class[w] < 0 {
						// remDeg only falls one port at a time and
						// starts above t, so it crosses t exactly here.
						if remDeg[w]--; int(remDeg[w]) == t {
							res.Class[w] = class
							queue = append(queue, w)
						}
					}
				}
			}
		}
		if spans != nil {
			spans.EngineRound(rounds)
		}
		rounds++
	}
	// Every removed vertex sent one notification per port in the round it
	// was removed: the protocol's count, taken at send time.
	var msgs int64
	for _, v := range queue {
		msgs += int64(off[v+1] - off[v])
	}
	// Charge before checking the error: a failed peel (e.g. a doubling
	// probe in EstimateDegeneracy or recolorLeftover) still consumed its
	// whole round budget and sent real messages on the simulated network.
	cost.Charge(rounds, "hpartition/peel")
	cost.ChargeMessages(msgs, msgs, "hpartition/peel")
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	if stuck {
		// The protocol's wording for an exhausted budget: the tests hold
		// this peel to the same program run round by round.
		return nil, fmt.Errorf("hpartition: peeling stuck with t=%d: dist: %d of %d programs still running after %d rounds: %w",
			t, n-len(queue), n, maxRounds, dist.ErrMaxRounds)
	}
	res.NumClasses = rounds
	return res, nil
}

// Before reports whether vertex u precedes v in the acyclic order:
// strictly earlier class, or same class with lower ID.
func (r *Result) Before(u, v int32) bool {
	if r.Class[u] != r.Class[v] {
		return r.Class[u] < r.Class[v]
	}
	return u < v
}

// AcyclicOrientation orients every edge from the endpoint that is earlier
// in the (class, ID) order (Theorem 2.1(2)). The result is acyclic with
// out-degree at most T. O(1) rounds.
func AcyclicOrientation(g *graph.Graph, r *Result, cost *dist.Cost) *verify.Orientation {
	o := verify.NewOrientation(g.M())
	for id, e := range g.Edges() {
		o.FromU[id] = r.Before(e.U, e.V)
	}
	cost.Charge(1, "hpartition/orient")
	return o
}

// OutEdges returns, for each vertex, the IDs of its out-edges under o.
// The per-vertex slices are views into one shared CSR-style backing
// array (grouped by tail, edge-ID order within a vertex), so the whole
// index costs a handful of allocations regardless of N.
func OutEdges(g *graph.Graph, o *verify.Orientation) [][]int32 {
	return g.GroupEdges(func(id int32) int32 { return o.Tail(g, id) })
}

// ForestDecomposition labels the out-edges of every vertex with distinct
// indices in [0, T), yielding a T-forest decomposition where every forest
// is rooted (Barenboim-Elkin's (2+eps)·alpha decomposition). O(1) rounds:
// one to orient every edge away from its Before-earlier endpoint, one to
// label. A single walk over the edges in ID order does both, counting
// each tail's out-edges so far, which numbers every vertex's out-edges in
// edge-ID order exactly as AcyclicOrientation plus OutEdges would.
func ForestDecomposition(g *graph.Graph, r *Result, cost *dist.Cost) ([]int32, error) {
	colors := make([]int32, g.M())
	outDeg := make([]int32, g.N())
	for id, e := range g.Edges() {
		tail := e.V
		if r.Before(e.U, e.V) {
			tail = e.U
		}
		colors[id] = outDeg[tail]
		outDeg[tail]++
	}
	cost.Charge(1, "hpartition/orient")
	for _, d := range outDeg {
		if int(d) > r.T {
			return nil, fmt.Errorf("hpartition: out-degree %d exceeds T=%d", d, r.T)
		}
	}
	cost.Charge(1, "hpartition/label")
	return colors, nil
}

// ListForestDecomposition colors each edge from its palette so that every
// color class is a forest, using the greedy per-vertex process of Theorem
// 2.1(4). Every palette must have at least T colors. O(1) rounds.
func ListForestDecomposition(g *graph.Graph, r *Result, palettes [][]int32, cost *dist.Cost) ([]int32, error) {
	o := AcyclicOrientation(g, r, cost)
	colors := make([]int32, g.M())
	for i := range colors {
		colors[i] = verify.Uncolored
	}
	for _, ids := range OutEdges(g, o) {
		used := make(map[int32]struct{}, len(ids))
		for _, id := range ids {
			picked := verify.Uncolored
			for _, c := range palettes[id] {
				if _, taken := used[c]; !taken {
					picked = c
					break
				}
			}
			if picked == verify.Uncolored {
				return nil, fmt.Errorf("hpartition: palette of edge %d exhausted (size %d, out-degree %d, T=%d)",
					id, len(palettes[id]), len(ids), r.T)
			}
			used[picked] = struct{}{}
			colors[id] = picked
		}
	}
	cost.Charge(1, "hpartition/list-color")
	return colors, nil
}

// StarForestDecomposition computes the 3T-star-forest decomposition of
// Theorem 2.1(3): label out-edges to get T rooted forests, 3-color every
// tree with Cole-Vishkin, and give each edge the color of its parent
// endpoint. Colors are 3*label + parentColor, in [0, 3T).
func StarForestDecomposition(g *graph.Graph, r *Result, cost *dist.Cost) ([]int32, error) {
	o := AcyclicOrientation(g, r, cost)
	outs := OutEdges(g, o)
	colors := make([]int32, g.M())
	maxRounds := 0
	for label := 0; label < r.T; label++ {
		// parent[v] = the head of v's out-edge with this label, if any.
		parent := make([]int32, g.N())
		edgeOf := make([]int32, g.N())
		for i := range parent {
			parent[i] = -1
			edgeOf[i] = -1
		}
		any := false
		for v := int32(0); int(v) < g.N(); v++ {
			if label < len(outs[v]) {
				id := outs[v][label]
				parent[v] = o.Head(g, id)
				edgeOf[v] = id
				any = true
			}
		}
		if !any {
			continue
		}
		vc, rounds, err := ThreeColorRootedForest(parent)
		if err != nil {
			return nil, fmt.Errorf("hpartition: label %d: %w", label, err)
		}
		if rounds > maxRounds {
			maxRounds = rounds
		}
		for v := int32(0); int(v) < g.N(); v++ {
			if edgeOf[v] >= 0 {
				colors[edgeOf[v]] = int32(3*label) + int32(vc[parent[v]])
			}
		}
	}
	// All labels run in parallel in the LOCAL model; charge the slowest.
	cost.Charge(maxRounds+1, "hpartition/star-color")
	return colors, nil
}

// EstimateDegeneracy finds, by doubling, the smallest power-of-two
// threshold t for which the peeling empties the graph within O(log n)
// rounds. The result sandwiches the sparsity measures: it is an upper
// bound on the degeneracy (hence on the arboricity), and at most ~5x the
// pseudo-arboricity, since t >= (2+eps)*alphaStar always peels in
// O(log n / eps) rounds. This removes the paper's standing assumption
// that alpha is globally known, at a factor-2 loss and an O(log^2 n)
// round cost.
func EstimateDegeneracy(ctx context.Context, g *graph.Graph, cost *dist.Cost) (int, error) {
	if g.N() == 0 {
		return 0, nil
	}
	budget := 8*int(math.Ceil(math.Log2(float64(g.N()+2)))) + 16
	for t := 1; ; t *= 2 {
		if _, err := Partition(ctx, g, t, budget, cost); err == nil {
			return t, nil
		}
		// A canceled probe is not "t too small": stop doubling and
		// surface the cancellation instead of an estimate failure.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return 0, ctxErr
		}
		if t > g.N() {
			return 0, fmt.Errorf("hpartition: estimate failed beyond t=%d", t)
		}
	}
}
