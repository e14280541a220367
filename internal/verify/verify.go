// Package verify contains validation oracles for every object the module
// produces: forest decompositions (partial, total, list), star-forest
// decompositions, per-color tree diameters and edge orientations.
//
// The paper's algorithms succeed "with high probability, and all the
// failure modes can be locally checked" (Section 1.1); these oracles are
// that check, run centrally. Tests and the benchmark harness validate
// every decomposition with them. The color-class checks lay the colored
// edges out in class order once, then spend two passes on each class:
// one accumulating in-class degrees, one peeling leaves (see
// walkClasses). A call costs O(n + m + k) for the largest color k
// present.
package verify

import (
	"fmt"

	"nwforest/internal/graph"
)

// Uncolored marks an edge that has no color in a partial decomposition.
const Uncolored int32 = -1

// ForestDecomposition checks that colors is a total k-forest-decomposition
// of g: every edge has a color in [0, k) and every color class is acyclic.
func ForestDecomposition(g *graph.Graph, colors []int32, k int) error {
	_, err := Forests(g, colors, k)
	return err
}

// Forests is ForestDecomposition and MaxForestDiameter in one pass: it
// checks that colors is a total k-forest-decomposition of g and returns
// the maximum diameter of its monochromatic trees.
func Forests(g *graph.Graph, colors []int32, k int) (diameter int, err error) {
	if err := checkColorRange(g, colors, k, false); err != nil {
		return 0, err
	}
	r := walkClasses(g, colors)
	if r.cycle != nil {
		return 0, r.cycle
	}
	return r.diameter, nil
}

// PartialForestDecomposition checks a partial decomposition: edges may be
// Uncolored, but colored classes must be acyclic and in range.
func PartialForestDecomposition(g *graph.Graph, colors []int32, k int) error {
	if err := checkColorRange(g, colors, k, true); err != nil {
		return err
	}
	return walkClasses(g, colors).cycle
}

// StarForestDecomposition checks that every color class is a star forest:
// acyclic, and each component has at most one vertex of degree >= 2.
func StarForestDecomposition(g *graph.Graph, colors []int32, k int) error {
	if err := checkColorRange(g, colors, k, false); err != nil {
		return err
	}
	r := walkClasses(g, colors)
	if r.cycle != nil {
		return r.cycle
	}
	if r.notStarIDs == nil {
		return nil
	}
	return twoCenters(g.N(), colors, r.notStarIDs, r.notStarEdges)
}

// PseudoForestDecomposition checks that every color class is a
// pseudo-forest: each connected component has at most as many edges as
// vertices (equivalently, at most one cycle).
func PseudoForestDecomposition(g *graph.Graph, colors []int32, k int) error {
	if err := checkColorRange(g, colors, k, false); err != nil {
		return err
	}
	return walkClasses(g, colors).twoCycles
}

// MaxForestDiameter returns the maximum strong diameter over all
// monochromatic trees (the paper's diameter of the decomposition).
// Uncolored edges are ignored. Returns 0 if no edges are colored. The
// value is unspecified when a color class has a cycle.
func MaxForestDiameter(g *graph.Graph, colors []int32) int {
	return walkClasses(g, colors).diameter
}

func checkColorRange(g *graph.Graph, colors []int32, k int, partialOK bool) error {
	if len(colors) != g.M() {
		return fmt.Errorf("verify: coloring has %d entries for %d edges", len(colors), g.M())
	}
	for id, c := range colors {
		if c == Uncolored {
			if partialOK {
				continue
			}
			return fmt.Errorf("verify: edge %d is uncolored", id)
		}
		if c < 0 || int(c) >= k {
			return fmt.Errorf("verify: edge %d has color %d outside [0,%d)", id, c, k)
		}
	}
	return nil
}

// classReport is what one walk over the color classes finds. Each
// violation is reported at the lowest color where it occurs, and within
// that color at the lowest edge ID; it is nil when there is none.
type classReport struct {
	// diameter is the largest diameter of a monochromatic tree;
	// unspecified when a class has a cycle.
	diameter int
	// cycle: an edge closes a cycle in its class.
	cycle error
	// twoCycles: an edge gives a component of its class a second cycle.
	twoCycles error
	// notStarIDs and notStarEdges are the lowest forest class with a
	// tree of diameter >= 3, in ID order; nil when there is none.
	notStarIDs   []int32
	notStarEdges []graph.Edge
}

// peelState is one vertex's state within the class being walked.
type peelState struct {
	deg    int32 // in-class edges not yet peeled
	nbr    int32 // XOR of the in-class neighbours not yet peeled
	height int32 // longest peeled path hanging below the vertex
}

// walkClasses visits each color class in two passes over its edges,
// which sortByColor has laid out in class order. The first accumulates
// every endpoint's in-class degree and the XOR of its neighbours, so a
// leaf's one remaining neighbour is known without an adjacency list.
// The second peels leaves in chains: from each candidate v, while v has
// degree 1 it is peeled into its neighbour u and the chain goes on from
// u. Peeling v closes a path through u of v's height + 1 plus u's
// tallest earlier branch, which gives every tree's exact diameter in any
// order that peels a vertex once it has one unpeeled neighbour. The
// candidates are all vertices in ID order when the class has at least
// n/2 edges (at most 2m/n classes do, so these scans cost O(m)), and its
// edges' endpoints otherwise.
//
// The state of every vertex is zero between classes, so a class needs no
// init pass: peeling zeroes each vertex it removes and each tree's last
// vertex, whose degree reaches 0. Peeling empties exactly the acyclic
// classes. A class it cannot empty resets its endpoints, then union-find
// over its edges in ID order counts each component's cycles and names
// the edges that close them. A forest class is a star forest iff none of
// its trees has diameter >= 3; the walk only records the lowest class
// that is not, and StarForestDecomposition names its edge (twoCenters).
//
// Negative colors are skipped. The scratch is 12 bytes per vertex and
// 12 per colored edge, allocated once, plus 8 per vertex for union-find
// from the first class peeling cannot empty. A call costs O(n + m + c)
// for the largest color c present.
func walkClasses(g *graph.Graph, colors []int32) classReport {
	var r classReport
	n := g.N()
	ids, edges, bounds := sortByColor(colors, g.Edges())
	st := make([]peelState, n)
	var parent, cycles []int32
	for j := 0; j+1 < len(bounds); j++ {
		lo, hi := bounds[j], bounds[j+1]
		if lo == hi {
			continue
		}
		es := edges[lo:hi]
		for _, e := range es {
			st[e.U].deg++
			st[e.U].nbr ^= e.V
			st[e.V].deg++
			st[e.V].nbr ^= e.U
		}
		peeled, diam := 0, int32(0)
		if 2*len(es) >= n {
			for v := range st {
				peeled, diam = peel(st, int32(v), peeled, diam)
			}
		} else {
			for _, e := range es {
				peeled, diam = peel(st, e.U, peeled, diam)
				peeled, diam = peel(st, e.V, peeled, diam)
			}
		}
		r.diameter = max(r.diameter, int(diam))
		if peeled == len(es) { // a forest
			if diam >= 3 && r.notStarIDs == nil {
				r.notStarIDs, r.notStarEdges = ids[lo:hi], es
			}
			continue
		}
		if parent == nil {
			parent, cycles = make([]int32, n), make([]int32, n)
		}
		for _, e := range es {
			// No result needs this reset (stale state could only stop
			// later peels, which union-find covers, and the diameter is
			// now unspecified), but it keeps the state zero between
			// classes unconditionally.
			st[e.U], st[e.V] = peelState{}, peelState{}
			parent[e.U], parent[e.V] = -1, -1
			cycles[e.U], cycles[e.V] = 0, 0
		}
		for i, e := range es {
			id := ids[int(lo)+i]
			ru, rv := find(parent, e.U), find(parent, e.V)
			if ru == rv {
				cycles[ru]++
				if r.cycle == nil {
					r.cycle = fmt.Errorf("verify: color %d contains a cycle through edge %d (%d-%d)", colors[id], id, e.U, e.V)
				}
			} else {
				if parent[ru] > parent[rv] { // union by size
					ru, rv = rv, ru
				}
				parent[ru] += parent[rv]
				cycles[ru] += cycles[rv]
				parent[rv] = ru
			}
			if cycles[ru] > 1 && r.twoCycles == nil {
				r.twoCycles = fmt.Errorf("verify: color %d has a component with two cycles, completed by edge %d (%d-%d)", colors[id], id, e.U, e.V)
			}
		}
	}
	return r
}

// peel peels v while it is a leaf, going on into its neighbour whenever
// that becomes one, and zeroes the tree's last vertex if it reaches it.
// It adds the vertices it peels to peeled and raises diam to the longest
// path it closes.
func peel(st []peelState, v int32, peeled int, diam int32) (int, int32) {
	for st[v].deg == 1 {
		u, h := st[v].nbr, st[v].height+1
		st[v] = peelState{}
		pu := &st[u]
		diam = max(diam, pu.height+h)
		pu.height = max(pu.height, h)
		pu.nbr ^= v
		pu.deg--
		if pu.deg == 0 {
			*pu = peelState{}
		}
		peeled++
		v = u
	}
	return peeled, diam
}

// find returns v's union-find root, halving the path on the way.
func find(parent []int32, v int32) int32 {
	for parent[v] >= 0 {
		if p := parent[v]; parent[p] >= 0 {
			parent[v] = parent[p]
		}
		v = parent[v]
	}
	return v
}

// twoCenters names the lowest-ID edge joining two vertices of in-class
// degree >= 2 in a forest class, given by its edge IDs and endpoints in
// ID order. A tree has such an edge iff its diameter is at least 3.
func twoCenters(n int, colors, ids []int32, edges []graph.Edge) error {
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	for i, e := range edges {
		if deg[e.U] >= 2 && deg[e.V] >= 2 {
			return fmt.Errorf("verify: color %d is not a star forest: edge %d joins two centers (%d-%d)", colors[ids[i]], ids[i], e.U, e.V)
		}
	}
	return nil
}

// sortByColor lays out the edges whose color is not negative in class
// order: by color and, within a color, by ID. ids holds their IDs and
// edges their endpoints; class j is ids[bounds[j]:bounds[j+1]], and a
// class may be empty. When every color is below 2^16 this is one
// counting pass and one scatter pass, with buckets sized by the largest
// color. Larger colors take a two-digit LSD radix sort of the IDs and a
// gather of the endpoints, so no color value can blow the buckets up.
func sortByColor(colors []int32, all []graph.Edge) (ids []int32, edges []graph.Edge, bounds []int32) {
	const digit = 1<<16 - 1
	top := int32(-1)
	for _, c := range colors {
		top = max(top, c)
	}
	if top <= digit {
		// count[c+2] counts class c; then count[c+1] is its start, and
		// after the scatter its end.
		count := make([]int32, top+3)
		for _, c := range colors {
			if c >= 0 {
				count[c+2]++
			}
		}
		for d := 2; d < len(count); d++ {
			count[d] += count[d-1]
		}
		ids = make([]int32, count[len(count)-1])
		edges = make([]graph.Edge, len(ids))
		for id, c := range colors {
			if c >= 0 {
				p := count[c+1]
				count[c+1]++
				ids[p] = int32(id)
				edges[p] = all[id]
			}
		}
		return ids, edges, count[:top+2]
	}
	ids = make([]int32, 0, len(colors))
	for id, c := range colors {
		if c >= 0 {
			ids = append(ids, int32(id))
		}
	}
	tmp := make([]int32, len(ids))
	count := make([]int32, digit+2)
	for shift := 0; shift <= 16; shift += 16 {
		count := count[:min(int(top>>shift), digit)+2]
		clear(count)
		for _, id := range ids {
			count[colors[id]>>shift&digit+1]++
		}
		for d := 1; d < len(count); d++ {
			count[d] += count[d-1]
		}
		for _, id := range ids {
			d := colors[id] >> shift & digit
			tmp[count[d]] = id
			count[d]++
		}
		ids, tmp = tmp, ids
	}
	edges = make([]graph.Edge, len(ids))
	bounds = make([]int32, 1, len(ids)+1)
	for i, id := range ids {
		edges[i] = all[id]
		if i > 0 && colors[id] != colors[ids[i-1]] {
			bounds = append(bounds, int32(i))
		}
	}
	return ids, edges, append(bounds, int32(len(ids)))
}

// RespectsPalettes checks that every colored edge uses a color from its
// palette.
func RespectsPalettes(colors []int32, palettes [][]int32) error {
	if len(colors) != len(palettes) {
		return fmt.Errorf("verify: %d colors but %d palettes", len(colors), len(palettes))
	}
	for id, c := range colors {
		if c == Uncolored {
			continue
		}
		ok := false
		for _, q := range palettes[id] {
			if q == c {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("verify: edge %d colored %d outside its palette %v", id, c, palettes[id])
		}
	}
	return nil
}

// ColorsUsed returns the number of distinct colors appearing in colors.
func ColorsUsed(colors []int32) int {
	seen := make(map[int32]struct{})
	for _, c := range colors {
		if c != Uncolored {
			seen[c] = struct{}{}
		}
	}
	return len(seen)
}

// MaxColor returns the largest color value used, or -1 if none.
func MaxColor(colors []int32) int32 {
	max := Uncolored
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	return max
}

// Orientation represents an edge orientation: FromU[id] == true means edge
// id is oriented from its U endpoint toward its V endpoint.
type Orientation struct {
	FromU []bool
}

// NewOrientation returns an all-U-to-V orientation for m edges.
func NewOrientation(m int) *Orientation { return &Orientation{FromU: make([]bool, m)} }

// Tail returns the source vertex of edge id under o.
func (o *Orientation) Tail(g *graph.Graph, id int32) int32 {
	e := g.Edge(id)
	if o.FromU[id] {
		return e.U
	}
	return e.V
}

// Head returns the target vertex of edge id under o.
func (o *Orientation) Head(g *graph.Graph, id int32) int32 {
	e := g.Edge(id)
	if o.FromU[id] {
		return e.V
	}
	return e.U
}

// OutDegrees returns the out-degree of every vertex under o.
func OutDegrees(g *graph.Graph, o *Orientation) []int {
	out := make([]int, g.N())
	for id := range g.Edges() {
		out[o.Tail(g, int32(id))]++
	}
	return out
}

// MaxOutDegree returns the maximum out-degree under o.
func MaxOutDegree(g *graph.Graph, o *Orientation) int {
	max := 0
	for _, d := range OutDegrees(g, o) {
		if d > max {
			max = d
		}
	}
	return max
}

// OrientationAcyclic reports whether the directed graph induced by o is
// acyclic (Kahn's algorithm).
func OrientationAcyclic(g *graph.Graph, o *Orientation) bool {
	indeg := make([]int, g.N())
	for id := range g.Edges() {
		indeg[o.Head(g, int32(id))]++
	}
	queue := make([]int32, 0, g.N())
	for v := range indeg {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	processed := 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		processed++
		for _, a := range g.Adj(v) {
			if o.Tail(g, a.Edge) != v {
				continue
			}
			indeg[a.To]--
			if indeg[a.To] == 0 {
				queue = append(queue, a.To)
			}
		}
	}
	return processed == g.N()
}
