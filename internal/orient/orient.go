// Package orient implements edge-orientation algorithms.
//
// A k-orientation (every vertex has out-degree at most k) is equivalent to
// a k-pseudo-forest decomposition and is the bridge between forest
// decompositions and many downstream algorithms. This package provides:
//
//   - FromForestDecomposition: orient every edge toward its tree root
//     (the reduction behind Corollary 1.1 of the paper), on the rooted
//     trees of a forest.State;
//   - MinMax: the exact centralized minimum-max-out-degree orientation via
//     path reversal, also yielding the exact pseudo-arboricity;
//   - Greedy: a linear-time 2α*-bounded starting orientation.
package orient

import (
	"slices"

	"nwforest/internal/dist"
	"nwforest/internal/forest"
	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// FromForestDecomposition orients each colored edge toward the root of its
// monochromatic tree; uncolored edges are oriented from U to V. The trees
// are forest.State's RootedTreesInColorWith over every vertex in ID order,
// so each is rooted at its minimum-ID vertex. If the decomposition uses k
// colors and has diameter D, the result is a k-orientation obtained in
// O(D) rounds (Corollary 1.1).
func FromForestDecomposition(g *graph.Graph, colors []int32, cost *dist.Cost) *verify.Orientation {
	o := verify.NewOrientation(g.M())
	for id := range o.FromU {
		o.FromU[id] = true // uncolored edges default to U -> V
	}
	st, sc := forest.FromColors(g, colors), forest.NewScratch(g.N())
	all := make([]int32, g.N())
	for v := range all {
		all[v] = int32(v)
	}
	maxDepth := int32(0)
	for _, c := range slices.Compact(slices.Sorted(slices.Values(colors))) {
		if c == verify.Uncolored {
			continue
		}
		for _, tr := range st.RootedTreesInColorWith(sc, c, all) {
			for i := 1; i < len(tr.Verts); i++ {
				// Verts[i] is the child; orient its parent edge away from it.
				id := tr.Parent[i]
				o.FromU[id] = g.Edge(id).U == tr.Verts[i]
				maxDepth = max(maxDepth, tr.Depth[i])
			}
		}
	}
	cost.Charge(int(maxDepth)+1, "orient/root-trees")
	return o
}

// Greedy returns the orientation that directs every edge from its
// lower-ID endpoint; a trivial starting point for MinMax.
func Greedy(g *graph.Graph) *verify.Orientation {
	o := verify.NewOrientation(g.M())
	for id, e := range g.Edges() {
		o.FromU[id] = e.U < e.V
	}
	return o
}

// MinMax computes an orientation minimizing the maximum out-degree, which
// equals the pseudo-arboricity α* of g (Picard-Queyranne [PQ82]). It works
// by path reversal: while some vertex is overloaded, find a directed path
// to a strictly underloaded vertex and reverse it.
func MinMax(g *graph.Graph) (*verify.Orientation, int) {
	o := Greedy(g)
	out := verify.OutDegrees(g, o)
	// Binary search the smallest feasible k between the density lower
	// bound and the current maximum.
	lo, hi := 0, 0
	for _, d := range out {
		if d > hi {
			hi = d
		}
	}
	if g.N() >= 2 {
		lo = (g.M() + g.N() - 1) / g.N() // ceil(m/n) <= alpha*
	}
	for lo < hi {
		k := (lo + hi) / 2
		if tryReduce(g, o, out, k) {
			hi = k
		} else {
			lo = k + 1
			// tryReduce may have partially modified o; that is fine, any
			// orientation is a valid starting point for the next probe.
		}
	}
	// Ensure o realizes hi (the last successful probe may predate failures).
	if !tryReduce(g, o, out, hi) {
		// Unreachable: hi is feasible by the search invariant.
		panic("orient: failed to realize feasible out-degree bound")
	}
	return o, hi
}

// tryReduce attempts to transform o into an orientation with maximum
// out-degree <= k by reversing directed paths from overloaded vertices
// (out-degree > k) to underloaded ones (out-degree < k). It reports
// whether it succeeded; out is kept in sync with o.
func tryReduce(g *graph.Graph, o *verify.Orientation, out []int, k int) bool {
	parent := make([]int32, g.N()) // arc edge used to reach vertex, -1 unset
	for {
		var start int32 = -1
		for v := range out {
			if out[v] > k {
				start = int32(v)
				break
			}
		}
		if start == -1 {
			return true
		}
		// BFS along out-edges from start looking for out-degree < k... the
		// target needs out-degree <= k-1 so that gaining one edge keeps it
		// within k.
		for i := range parent {
			parent[i] = -1
		}
		visited := make([]bool, g.N())
		visited[start] = true
		queue := []int32{start}
		var target int32 = -1
		for head := 0; head < len(queue) && target == -1; head++ {
			v := queue[head]
			for _, a := range g.Adj(v) {
				if o.Tail(g, a.Edge) != v || visited[a.To] {
					continue
				}
				visited[a.To] = true
				parent[a.To] = a.Edge
				if out[a.To] < k {
					target = a.To
					break
				}
				queue = append(queue, a.To)
			}
		}
		if target == -1 {
			// No augmenting path: the set reachable from start certifies
			// density > k, so no k-orientation exists.
			return false
		}
		// Reverse the path start -> target.
		for cur := target; cur != start; {
			id := parent[cur]
			o.FromU[id] = !o.FromU[id]
			cur = g.Edge(id).Other(cur)
		}
		out[start]--
		out[target]++
	}
}

// PseudoArboricity returns the exact pseudo-arboricity of g.
func PseudoArboricity(g *graph.Graph) int {
	_, k := MinMax(g)
	return k
}

// PseudoForestDecomposition labels each edge by its index among the
// out-edges of its tail, turning a k-orientation into k pseudo-forests
// (every vertex has at most one out-edge per label, so each component of
// a label class carries at most one cycle). This is the classical
// k-orientation <=> k-pseudo-forest equivalence the paper builds on.
func PseudoForestDecomposition(g *graph.Graph, o *verify.Orientation) []int32 {
	colors := make([]int32, g.M())
	next := make([]int32, g.N())
	for id := int32(0); int(id) < g.M(); id++ {
		tail := o.Tail(g, id)
		colors[id] = next[tail]
		next[tail]++
	}
	return colors
}
