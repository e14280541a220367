// Package verify contains validation oracles for every object the module
// produces: forest decompositions (partial, total, list), star-forest
// decompositions, per-color tree diameters and edge orientations.
//
// The paper's algorithms succeed "with high probability, and all the
// failure modes can be locally checked" (Section 1.1); these oracles are
// that check, run centrally. Tests and the benchmark harness validate
// every decomposition with them. The color-class checks walk each class
// once, so a call costs O(n + m + k) for the largest color k present.
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
	return r.twoCenters
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
	// twoCenters: an edge joins two vertices of in-class degree >= 2.
	twoCenters error
}

// vertexState is one vertex's state within the class being walked.
type vertexState struct {
	parent int32 // union-find parent; minus the component size at a root
	cycles int32 // at a root: the component's edges minus (vertices - 1)
	deg    int32 // in-class edges not yet peeled
	nbr    int32 // XOR of the in-class neighbours not yet peeled
	height int32 // longest peeled path hanging below the vertex
}

// walkClasses visits each color class once. Its in-class degrees find
// edges between two star centers, and peeling its leaves measures its
// trees: a leaf's one remaining neighbour is the XOR of its unpeeled
// neighbours, so no adjacency list is built. Peeling empties exactly the
// acyclic classes; in a class it cannot empty, union-find over the edges
// counts each component's cycles and names the edges that close them.
// Negative colors are skipped. A class touches only its own edges and
// their endpoints, so a call costs O(n + m + c) for the largest color c
// present, with O(n) scratch allocated once.
func walkClasses(g *graph.Graph, colors []int32) classReport {
	var r classReport
	edges := g.Edges()
	vs := make([]vertexState, g.N())
	queue := make([]int32, 0, g.N())
	order := sortByColor(colors)
	for start := 0; start < len(order); {
		c := colors[order[start]]
		end := start + 1
		for end < len(order) && colors[order[end]] == c {
			end++
		}
		ids := order[start:end]
		start = end

		for _, id := range ids {
			e := edges[id]
			vs[e.U] = vertexState{parent: -1}
			vs[e.V] = vertexState{parent: -1}
		}
		for _, id := range ids {
			e := edges[id]
			vs[e.U].deg++
			vs[e.U].nbr ^= e.V
			vs[e.V].deg++
			vs[e.V].nbr ^= e.U
		}
		// An edge whose endpoints both have in-class degree >= 2 joins
		// two star centers. A leaf is the endpoint of exactly one class
		// edge, so this queues each leaf once. Peeling leaf v into its
		// neighbour u closes a path through u of v's height + 1 plus u's
		// tallest earlier branch.
		queue = queue[:0]
		for _, id := range ids {
			e := edges[id]
			du, dv := vs[e.U].deg, vs[e.V].deg
			if du >= 2 && dv >= 2 && r.twoCenters == nil {
				r.twoCenters = fmt.Errorf("verify: color %d is not a star forest: edge %d joins two centers (%d-%d)", c, id, e.U, e.V)
			}
			if du == 1 {
				queue = append(queue, e.U)
			}
			if dv == 1 {
				queue = append(queue, e.V)
			}
		}
		peeled := 0
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if vs[v].deg == 0 { // the last vertex of its tree
				continue
			}
			peeled++
			u, h := vs[v].nbr, vs[v].height+1
			r.diameter = max(r.diameter, int(vs[u].height+h))
			vs[u].height = max(vs[u].height, h)
			vs[u].nbr ^= v
			vs[u].deg--
			if vs[u].deg == 1 {
				queue = append(queue, u)
			}
		}
		if peeled == len(ids) { // a forest
			continue
		}
		for _, id := range ids {
			e := edges[id]
			ru, rv := find(vs, e.U), find(vs, e.V)
			if ru == rv {
				vs[ru].cycles++
				if r.cycle == nil {
					r.cycle = fmt.Errorf("verify: color %d contains a cycle through edge %d (%d-%d)", c, id, e.U, e.V)
				}
			} else {
				if vs[ru].parent > vs[rv].parent { // union by size
					ru, rv = rv, ru
				}
				vs[ru].parent += vs[rv].parent
				vs[ru].cycles += vs[rv].cycles
				vs[rv].parent = ru
			}
			if vs[ru].cycles > 1 && r.twoCycles == nil {
				r.twoCycles = fmt.Errorf("verify: color %d has a component with two cycles, completed by edge %d (%d-%d)", c, id, e.U, e.V)
			}
		}
	}
	return r
}

// find returns v's union-find root, halving the path on the way.
func find(vs []vertexState, v int32) int32 {
	for vs[v].parent >= 0 {
		if p := vs[v].parent; vs[p].parent >= 0 {
			vs[v].parent = vs[p].parent
		}
		v = vs[v].parent
	}
	return v
}

// sortByColor returns the IDs of the edges whose color is not negative,
// ordered by color and, within a color, by ID. It is a counting sort on
// the color with buckets sized by the largest color present; colors of
// 2^16 and more take a second pass on their high bits (an LSD radix
// sort), so no color value can blow the buckets up.
func sortByColor(colors []int32) []int32 {
	const digit = 1<<16 - 1
	ids := make([]int32, 0, len(colors))
	top := int32(-1)
	for id, c := range colors {
		if c >= 0 {
			ids = append(ids, int32(id))
			top = max(top, c)
		}
	}
	tmp := make([]int32, len(ids))
	for shift := 0; shift == 0 || top>>shift > 0; shift += 16 {
		count := make([]int32, min(int(top>>shift), digit)+2)
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
	return ids
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
