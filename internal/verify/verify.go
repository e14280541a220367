// Package verify contains validation oracles for every object the module
// produces: forest decompositions (partial, total, list), star-forest
// decompositions, per-color tree diameters and edge orientations.
//
// The paper's algorithms succeed "with high probability, and all the
// failure modes can be locally checked" (Section 1.1); these oracles are
// that check, run centrally. Tests and the benchmark harness validate
// every decomposition with them. The color-class checks read the colors
// once for their range and largest value, sort the colored edge IDs into
// class order with one counting pass and one scatter, then spend two
// passes on each class: one accumulating in-class degrees, one peeling
// leaves from a queue (see walkClasses). A call costs O(n + m + k) for
// the largest color k present. Its scratch comes from a pool, so a
// caller that checks graphs of one size allocates nothing.
package verify

import (
	"fmt"
	"sync"

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
	top, err := checkColors(g, colors, k, false)
	if err != nil {
		return 0, err
	}
	r := walkClasses(g, colors, top, false)
	if r.cycle != nil {
		return 0, r.cycle
	}
	return r.diameter, nil
}

// PartialForestDecomposition checks a partial decomposition: edges may be
// Uncolored, but colored classes must be acyclic and in range.
func PartialForestDecomposition(g *graph.Graph, colors []int32, k int) error {
	top, err := checkColors(g, colors, k, true)
	if err != nil {
		return err
	}
	return walkClasses(g, colors, top, false).cycle
}

// StarForestDecomposition checks that every color class is a star forest:
// acyclic, and each component has at most one vertex of degree >= 2.
func StarForestDecomposition(g *graph.Graph, colors []int32, k int) error {
	_, err := StarForests(g, colors, k)
	return err
}

// StarForests is StarForestDecomposition and MaxForestDiameter in one
// pass: it checks that colors is a total k-star-forest-decomposition of
// g and returns the maximum diameter of its monochromatic trees.
func StarForests(g *graph.Graph, colors []int32, k int) (diameter int, err error) {
	top, err := checkColors(g, colors, k, false)
	if err != nil {
		return 0, err
	}
	r := walkClasses(g, colors, top, true)
	if r.cycle != nil {
		return 0, r.cycle
	}
	if r.notStar != nil {
		return 0, r.notStar
	}
	return r.diameter, nil
}

// PseudoForestDecomposition checks that every color class is a
// pseudo-forest: each connected component has at most as many edges as
// vertices (equivalently, at most one cycle).
func PseudoForestDecomposition(g *graph.Graph, colors []int32, k int) error {
	top, err := checkColors(g, colors, k, false)
	if err != nil {
		return err
	}
	return walkClasses(g, colors, top, false).twoCycles
}

// MaxForestDiameter returns the maximum strong diameter over all
// monochromatic trees (the paper's diameter of the decomposition).
// Uncolored edges are ignored. Returns 0 if no edges are colored, and
// -1 (undefined) when colors has more entries than g has edges. The
// value is unspecified when a color class has a cycle.
func MaxForestDiameter(g *graph.Graph, colors []int32) int {
	if len(colors) > g.M() {
		return -1
	}
	return walkClasses(g, colors, MaxColor(colors), false).diameter
}

// checkColors checks that colors has an entry for every edge of g, each
// in [0, k) or, if partialOK, Uncolored, and returns the largest color.
// An error names the lowest edge ID out of range.
func checkColors(g *graph.Graph, colors []int32, k int, partialOK bool) (top int32, err error) {
	if len(colors) != g.M() {
		return 0, fmt.Errorf("verify: coloring has %d entries for %d edges", len(colors), g.M())
	}
	top = Uncolored
	for id, c := range colors {
		if c == Uncolored {
			if partialOK {
				continue
			}
			return 0, fmt.Errorf("verify: edge %d is uncolored", id)
		}
		if c < 0 || int(c) >= k {
			return 0, fmt.Errorf("verify: edge %d has color %d outside [0,%d)", id, c, k)
		}
		top = max(top, c)
	}
	return top, nil
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
	// notStar: an edge joins two centers in the lowest class that is a
	// forest but not a star forest. Only looked for when asked, and only
	// when no class has a cycle.
	notStar error
}

// peelState is one vertex's state within the class being walked.
type peelState struct {
	deg    int32 // in-class edges not yet peeled
	nbr    int32 // XOR of the in-class neighbours not yet peeled
	height int32 // longest peeled path hanging below the vertex
}

// scratch is a class walk's working memory, lent by scratchPool and
// grown to the largest call. Every peel state is zero between calls; the
// other arrays are written before they are read.
type scratch struct {
	ids, tmp, count, queue []int32
	st                     []peelState
}

// scratchPool holds the walks' scratch. A walk puts its scratch back only
// on a normal return, so a panic cannot leave nonzero peel states in it.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// walkClasses visits each color class in two passes over its edge IDs,
// which sortByColor has laid out in class order; the endpoints are read
// from g.Edges(), forward, since IDs ascend within a class. The first
// pass accumulates every endpoint's in-class degree and the XOR of its
// neighbours, so a leaf's one remaining neighbour is known without an
// adjacency list. The second peels leaves from a queue: it lists the
// class's leaves, then pops each and peels it into its neighbour u,
// appending u once u's degree falls to 1. Peeling v closes a path through
// u of v's height + 1 plus u's tallest earlier branch, which gives every
// tree's exact diameter in any order that peels a vertex once it has one
// unpeeled neighbour. The leaves are listed from all vertices when the
// class has at least n/2 edges (at most 2m/n classes do, so these scans
// cost O(m)), and from its edges' endpoints otherwise; a leaf lies on one
// class edge, so it is listed once. Both listings and the appends write
// the next slot unconditionally and advance by the degree test, without
// a branch. Each vertex enters the queue at most once, so it needs n + 1
// slots.
//
// The state of every vertex is zero between classes and between calls,
// so neither a class nor a call on pooled scratch needs an init pass:
// peeling zeroes each vertex it removes, and a tree's last vertex, whose
// degree reaches 0 while it waits in the queue, is zeroed when popped.
// Peeling empties exactly the acyclic classes. A class it cannot empty
// resets its endpoints, then union-find over its edges in ID order
// counts each component's cycles and names the edges that close them.
// A forest class is a star forest iff none of its trees has diameter
// >= 3; with stars set, the walk names an edge joining two centers in
// the lowest class that is not (twoCenters).
//
// Negative colors are skipped; top is the largest color. The scratch is
// 12 bytes and one queue slot per vertex and one ID per colored edge,
// plus 8 bytes per vertex for union-find from the first class peeling
// cannot empty. A call costs O(n + m + top).
func walkClasses(g *graph.Graph, colors []int32, top int32, stars bool) classReport {
	var r classReport
	n := g.N()
	all := g.Edges()
	sc := scratchPool.Get().(*scratch)
	ids, bounds := sc.sortByColor(colors, top)
	if cap(sc.st) < n {
		sc.st = make([]peelState, n)
	}
	st := sc.st[:n]
	q := grow(&sc.queue, n+1)
	var parent, cycles, notStar []int32
	for j := 0; j+1 < len(bounds); j++ {
		class := ids[bounds[j]:bounds[j+1]]
		if len(class) == 0 {
			continue
		}
		for _, id := range class {
			e := all[id]
			st[e.U].deg++
			st[e.U].nbr ^= e.V
			st[e.V].deg++
			st[e.V].nbr ^= e.U
		}
		l := 0
		if 2*len(class) >= n {
			for v := range st {
				q[l] = int32(v)
				l += b2i(st[v].deg == 1)
			}
		} else {
			for _, id := range class {
				e := all[id]
				q[l] = e.U
				l += b2i(st[e.U].deg == 1)
				q[l] = e.V
				l += b2i(st[e.V].deg == 1)
			}
		}
		peeled, diam := 0, int32(0)
		for h := 0; h < l; h++ {
			v := q[h]
			if st[v].deg != 1 { // a tree's last vertex
				st[v].height = 0
				continue
			}
			u, ht := st[v].nbr, st[v].height+1
			st[v] = peelState{}
			pu := &st[u]
			diam = max(diam, pu.height+ht)
			pu.height = max(pu.height, ht)
			pu.nbr ^= v
			pu.deg--
			q[l] = u
			l += b2i(pu.deg == 1)
			peeled++
		}
		r.diameter = max(r.diameter, int(diam))
		if peeled == len(class) { // a forest
			if diam >= 3 && notStar == nil {
				notStar = class
			}
			continue
		}
		if parent == nil {
			parent, cycles = make([]int32, n), make([]int32, n)
		}
		for _, id := range class {
			// Stale state could only stop later peels in this call,
			// which union-find covers, but the next call takes the
			// scratch from the pool and needs it zero.
			e := all[id]
			st[e.U], st[e.V] = peelState{}, peelState{}
			parent[e.U], parent[e.V] = -1, -1
			cycles[e.U], cycles[e.V] = 0, 0
		}
		for _, id := range class {
			e := all[id]
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
	if stars && r.cycle == nil && notStar != nil {
		r.notStar = twoCenters(n, colors, notStar, all)
	}
	scratchPool.Put(sc)
	return r
}

// b2i is 1 for true and 0 for false, compiled to a flag move, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
// degree >= 2 in a forest class, given by its edge IDs in ascending
// order. A tree has such an edge iff its diameter is at least 3.
func twoCenters(n int, colors, ids []int32, all []graph.Edge) error {
	deg := make([]int32, n)
	for _, id := range ids {
		deg[all[id].U]++
		deg[all[id].V]++
	}
	for _, id := range ids {
		if e := all[id]; deg[e.U] >= 2 && deg[e.V] >= 2 {
			return fmt.Errorf("verify: color %d is not a star forest: edge %d joins two centers (%d-%d)", colors[id], id, e.U, e.V)
		}
	}
	return nil
}

// sortByColor lays out the IDs of the edges whose color is not negative
// in class order: by color and, within a color, by ID. Class j is
// ids[bounds[j]:bounds[j+1]], and a class may be empty; top is the
// largest color. When top is below 2^16 this is one counting pass and
// one scatter, with buckets sized by top. Larger colors take a two-digit
// LSD radix sort, so no color value can blow the buckets up. Both views
// returned are sc's arrays.
func (sc *scratch) sortByColor(colors []int32, top int32) (ids, bounds []int32) {
	const digit = 1<<16 - 1
	if top <= digit {
		// count[c+2] counts class c; then count[c+1] is its start, and
		// after the scatter its end.
		count := grow(&sc.count, int(top)+3)
		clear(count)
		for _, c := range colors {
			if c >= 0 {
				count[c+2]++
			}
		}
		for d := 2; d < len(count); d++ {
			count[d] += count[d-1]
		}
		ids = grow(&sc.ids, int(count[len(count)-1]))
		for id, c := range colors {
			if c >= 0 {
				p := count[c+1]
				count[c+1]++
				ids[p] = int32(id)
			}
		}
		return ids, count[:top+2]
	}
	ids = grow(&sc.ids, len(colors))[:0]
	for id, c := range colors {
		if c >= 0 {
			ids = append(ids, int32(id))
		}
	}
	// tmp has a slot to spare: after the sort it holds the bounds, one
	// more than the classes.
	tmp := grow(&sc.tmp, len(ids)+1)[:len(ids)]
	count := grow(&sc.count, digit+2)
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
	bounds = append(tmp[:0], 0)
	for i := 1; i < len(ids); i++ {
		if colors[ids[i]] != colors[ids[i-1]] {
			bounds = append(bounds, int32(i))
		}
	}
	return ids, append(bounds, int32(len(ids)))
}

// grow returns (*s)[:n], first replacing *s by a zeroed array of n
// elements when it is shorter.
func grow(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	return (*s)[:n]
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
