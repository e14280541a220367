package verify

import (
	"fmt"
	"math"
	"testing"

	"nwforest/internal/graph"
)

// This file keeps the class walk as it was before its scratch was pooled
// and its peel driven by a leaf queue: the edges laid out with their
// endpoints, leaves peeled in chains, and a range pass of its own. It is
// the reference FuzzClassWalk holds the exported checks to, error text
// included.

// oracleForests, oraclePartial, oracleStarForests and oraclePseudo are
// the exported checks as they were built on the reference walk.
func oracleForests(g *graph.Graph, colors []int32, k int) (int, error) {
	if err := oracleCheckColorRange(g, colors, k, false); err != nil {
		return 0, err
	}
	r := oracleWalkClasses(g, colors)
	if r.cycle != nil {
		return 0, r.cycle
	}
	return r.diameter, nil
}

func oraclePartial(g *graph.Graph, colors []int32, k int) error {
	if err := oracleCheckColorRange(g, colors, k, true); err != nil {
		return err
	}
	return oracleWalkClasses(g, colors).cycle
}

func oracleStarForests(g *graph.Graph, colors []int32, k int) (int, error) {
	if err := oracleCheckColorRange(g, colors, k, false); err != nil {
		return 0, err
	}
	r := oracleWalkClasses(g, colors)
	if r.cycle != nil {
		return 0, r.cycle
	}
	if r.notStarIDs != nil {
		return 0, oracleTwoCenters(g.N(), colors, r.notStarIDs, r.notStarEdges)
	}
	return r.diameter, nil
}

func oraclePseudo(g *graph.Graph, colors []int32, k int) error {
	if err := oracleCheckColorRange(g, colors, k, false); err != nil {
		return err
	}
	return oracleWalkClasses(g, colors).twoCycles
}

func oracleCheckColorRange(g *graph.Graph, colors []int32, k int, partialOK bool) error {
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

// oracleReport is what one walk over the color classes finds. Each
// violation is reported at the lowest color where it occurs, and within
// that color at the lowest edge ID; it is nil when there is none.
type oracleReport struct {
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

// oraclePeelState is one vertex's state within the class being walked.
type oraclePeelState struct {
	deg    int32 // in-class edges not yet peeled
	nbr    int32 // XOR of the in-class neighbours not yet peeled
	height int32 // longest peeled path hanging below the vertex
}

// oracleWalkClasses visits each color class in two passes over its edges,
// which oracleSortByColor has laid out in class order. The first accumulates
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
// that is not, and oracleStarForests names its edge (oracleTwoCenters).
//
// Negative colors are skipped. The scratch is 12 bytes per vertex and
// 12 per colored edge, allocated once, plus 8 per vertex for union-find
// from the first class peeling cannot empty. A call costs O(n + m + c)
// for the largest color c present.
func oracleWalkClasses(g *graph.Graph, colors []int32) oracleReport {
	var r oracleReport
	n := g.N()
	ids, edges, bounds := oracleSortByColor(colors, g.Edges())
	st := make([]oraclePeelState, n)
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
				peeled, diam = oraclePeel(st, int32(v), peeled, diam)
			}
		} else {
			for _, e := range es {
				peeled, diam = oraclePeel(st, e.U, peeled, diam)
				peeled, diam = oraclePeel(st, e.V, peeled, diam)
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
			st[e.U], st[e.V] = oraclePeelState{}, oraclePeelState{}
			parent[e.U], parent[e.V] = -1, -1
			cycles[e.U], cycles[e.V] = 0, 0
		}
		for i, e := range es {
			id := ids[int(lo)+i]
			ru, rv := oracleFind(parent, e.U), oracleFind(parent, e.V)
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

// oraclePeel peels v while it is a leaf, going on into its neighbour whenever
// that becomes one, and zeroes the tree's last vertex if it reaches it.
// It adds the vertices it peels to peeled and raises diam to the longest
// path it closes.
func oraclePeel(st []oraclePeelState, v int32, peeled int, diam int32) (int, int32) {
	for st[v].deg == 1 {
		u, h := st[v].nbr, st[v].height+1
		st[v] = oraclePeelState{}
		pu := &st[u]
		diam = max(diam, pu.height+h)
		pu.height = max(pu.height, h)
		pu.nbr ^= v
		pu.deg--
		if pu.deg == 0 {
			*pu = oraclePeelState{}
		}
		peeled++
		v = u
	}
	return peeled, diam
}

// oracleFind returns v's union-find root, halving the path on the way.
func oracleFind(parent []int32, v int32) int32 {
	for parent[v] >= 0 {
		if p := parent[v]; parent[p] >= 0 {
			parent[v] = parent[p]
		}
		v = parent[v]
	}
	return v
}

// oracleTwoCenters names the lowest-ID edge joining two vertices of in-class
// degree >= 2 in a forest class, given by its edge IDs and endpoints in
// ID order. A tree has such an edge iff its diameter is at least 3.
func oracleTwoCenters(n int, colors, ids []int32, edges []graph.Edge) error {
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

// oracleSortByColor lays out the edges whose color is not negative in class
// order: by color and, within a color, by ID. ids holds their IDs and
// edges their endpoints; class j is ids[bounds[j]:bounds[j+1]], and a
// class may be empty. When every color is below 2^16 this is one
// counting pass and one scatter pass, with buckets sized by the largest
// color. Larger colors take a two-digit LSD radix sort of the IDs and a
// gather of the endpoints, so no color value can blow the buckets up.
func oracleSortByColor(colors []int32, all []graph.Edge) (ids []int32, edges []graph.Edge, bounds []int32) {
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

// walkCall is the outcome of one exported check: its diameter (0 where
// it returns none) and its error.
type walkCall struct {
	name     string
	diameter int
	err      error
}

// walkCalls runs every exported class check on one coloring.
func walkCalls(g *graph.Graph, colors []int32, k int) []walkCall {
	d, err := Forests(g, colors, k)
	sd, serr := StarForests(g, colors, k)
	return []walkCall{
		{"Forests", d, err},
		{"ForestDecomposition", 0, ForestDecomposition(g, colors, k)},
		{"PartialForestDecomposition", 0, PartialForestDecomposition(g, colors, k)},
		{"PseudoForestDecomposition", 0, PseudoForestDecomposition(g, colors, k)},
		{"StarForests", sd, serr},
		{"StarForestDecomposition", 0, StarForestDecomposition(g, colors, k)},
		{"MaxForestDiameter", MaxForestDiameter(g, colors), nil},
	}
}

// oracleWalkCalls is walkCalls on the reference walk.
func oracleWalkCalls(g *graph.Graph, colors []int32, k int) []walkCall {
	d, err := oracleForests(g, colors, k)
	sd, serr := oracleStarForests(g, colors, k)
	return []walkCall{
		{"Forests", d, err},
		{"ForestDecomposition", 0, err},
		{"PartialForestDecomposition", 0, oraclePartial(g, colors, k)},
		{"PseudoForestDecomposition", 0, oraclePseudo(g, colors, k)},
		{"StarForests", sd, serr},
		{"StarForestDecomposition", 0, serr},
		{"MaxForestDiameter", oracleWalkClasses(g, colors).diameter, nil},
	}
}

// sameCalls reports how got differs from want: an error text, byte for
// byte, or a diameter. Diameters are compared only when forests is set,
// that is when every class is a forest: a cyclic class leaves them
// unspecified, and the two walks peel in different orders.
func sameCalls(got, want []walkCall, forests bool) error {
	for i, w := range want {
		g := got[i]
		if fmt.Sprint(g.err) != fmt.Sprint(w.err) {
			return fmt.Errorf("%s: error %v, reference %v", w.name, g.err, w.err)
		}
		if forests && g.diameter != w.diameter {
			return fmt.Errorf("%s: diameter %d, reference %d", w.name, g.diameter, w.diameter)
		}
	}
	return nil
}

// fuzzColor maps a byte to a color: mostly one of six small colors, so
// classes share vertices and some colors are missing, and otherwise a
// sparse color below 2^16, one of 2^16 and more whose low 16 bits
// collide, one near the int32 maximum, Uncolored, or another negative.
func fuzzColor(b byte) int32 {
	switch {
	case b < 192:
		return int32(b % 6)
	case b < 216:
		return int32(b-192)*1000 + 7
	case b < 232:
		return 1<<16*int32(b-215) + int32(b&1)
	case b < 236:
		return math.MaxInt32 - int32(b-232)
	case b < 248:
		return Uncolored
	case b < 252:
		return -2 - int32(b-248)
	default:
		return math.MinInt32
	}
}

// walkInput decodes fuzz bytes into a multigraph on 2 to 16 vertices, a
// coloring and a palette bound k. data[0] picks n, and its top bit drops
// the coloring's last entry; data[1] picks k: the largest color + 1, the
// largest color, 2^30, or a small constant. Each further three bytes are
// an edge: two endpoints, made distinct, and a color (fuzzColor).
// Parallel edges and cycles come from repeated endpoints.
func walkInput(data []byte) (*graph.Graph, []int32, int) {
	if len(data) < 2 {
		return graph.MustNew(0, nil), nil, 0
	}
	n := 2 + int(data[0]&0x7f)%15
	var edges []graph.Edge
	var colors []int32
	for i := 2; i+2 < len(data) && len(edges) < 64; i += 3 {
		u := int(data[i]) % n
		v := (u + 1 + int(data[i+1])%(n-1)) % n
		edges = append(edges, graph.E(int32(u), int32(v)))
		colors = append(colors, fuzzColor(data[i+2]))
	}
	if data[0]&0x80 != 0 && len(colors) > 0 {
		colors = colors[:len(colors)-1]
	}
	top := int(MaxColor(colors))
	k := [4]int{top + 1, top, 1 << 30, int(data[1] >> 2)}[data[1]%4]
	return graph.MustNew(n, edges), colors, k
}

// FuzzClassWalk holds every exported class check to the reference walk
// on small multigraphs: the same verdict and error text, and the same
// diameter where every class is a forest. Its seed corpus is in
// testdata/fuzz/FuzzClassWalk.
func FuzzClassWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, colors, k := walkInput(data)
		forests := oracleWalkClasses(g, colors).cycle == nil
		if err := sameCalls(walkCalls(g, colors, k), oracleWalkCalls(g, colors, k), forests); err != nil {
			t.Fatalf("n=%d edges=%v colors=%v k=%d: %v", g.N(), g.Edges(), colors, k, err)
		}
	})
}
