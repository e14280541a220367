package verify

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nwforest/internal/graph"
	"nwforest/internal/rng"
)

func triangle() *graph.Graph {
	return graph.MustNew(3, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 0)})
}

func TestForestDecompositionValid(t *testing.T) {
	g := triangle()
	if err := ForestDecomposition(g, []int32{0, 0, 1}, 2); err != nil {
		t.Fatal(err)
	}
}

func TestForestDecompositionCycle(t *testing.T) {
	g := triangle()
	if err := ForestDecomposition(g, []int32{0, 0, 0}, 1); err == nil {
		t.Fatal("monochromatic triangle accepted")
	}
}

func TestForestDecompositionRange(t *testing.T) {
	g := triangle()
	if err := ForestDecomposition(g, []int32{0, 0, 2}, 2); err == nil {
		t.Fatal("color 2 accepted with k=2")
	}
	if err := ForestDecomposition(g, []int32{0, 0, Uncolored}, 2); err == nil {
		t.Fatal("uncolored edge accepted in total decomposition")
	}
	if err := ForestDecomposition(g, []int32{0, 0}, 2); err == nil {
		t.Fatal("wrong-length coloring accepted")
	}
}

func TestPartialForestDecomposition(t *testing.T) {
	g := triangle()
	if err := PartialForestDecomposition(g, []int32{0, Uncolored, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := PartialForestDecomposition(g, []int32{0, 0, 0}, 1); err == nil {
		t.Fatal("cycle accepted in partial decomposition")
	}
}

func TestStarForestDecomposition(t *testing.T) {
	// Path 0-1-2-3: coloring all edges the same is a forest but not a
	// star forest (vertex 1 and 2 both have degree 2).
	g := graph.MustNew(4, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 3)})
	if err := StarForestDecomposition(g, []int32{0, 0, 0}, 1); err == nil {
		t.Fatal("path of length 3 accepted as star forest")
	}
	if err := StarForestDecomposition(g, []int32{0, 1, 0}, 2); err != nil {
		t.Fatalf("valid star decomposition rejected: %v", err)
	}
	// A star K_{1,3} in one color is fine.
	star := graph.MustNew(4, []graph.Edge{graph.E(0, 1), graph.E(0, 2), graph.E(0, 3)})
	if err := StarForestDecomposition(star, []int32{0, 0, 0}, 1); err != nil {
		t.Fatalf("star rejected: %v", err)
	}
}

func TestMaxForestDiameter(t *testing.T) {
	g := graph.MustNew(5, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 3), graph.E(3, 4)})
	if d := MaxForestDiameter(g, []int32{0, 0, 0, 0}); d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
	if d := MaxForestDiameter(g, []int32{0, 1, 0, 1}); d != 1 {
		t.Fatalf("diameter = %d, want 1", d)
	}
	if d := MaxForestDiameter(g, []int32{Uncolored, Uncolored, Uncolored, Uncolored}); d != 0 {
		t.Fatalf("diameter = %d, want 0", d)
	}
}

func TestMaxForestDiameterTwoComponents(t *testing.T) {
	g := graph.MustNew(7, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(4, 5), graph.E(5, 6), graph.E(3, 4)})
	// Color 0: path 0-1-2 (diam 2) and path 3-4-5-6 (diam 3).
	if d := MaxForestDiameter(g, []int32{0, 0, 0, 0, 0}); d != 3 {
		t.Fatalf("diameter = %d, want 3", d)
	}
}

func TestRespectsPalettes(t *testing.T) {
	pal := [][]int32{{0, 1}, {2}}
	if err := RespectsPalettes([]int32{1, 2}, pal); err != nil {
		t.Fatal(err)
	}
	if err := RespectsPalettes([]int32{2, 2}, pal); err == nil {
		t.Fatal("off-palette color accepted")
	}
	if err := RespectsPalettes([]int32{Uncolored, 2}, pal); err != nil {
		t.Fatal("uncolored edge should be ignored")
	}
	if err := RespectsPalettes([]int32{1}, pal); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestColorsUsedAndMaxColor(t *testing.T) {
	colors := []int32{0, 3, 3, Uncolored, 1}
	if n := ColorsUsed(colors); n != 3 {
		t.Fatalf("ColorsUsed = %d, want 3", n)
	}
	if m := MaxColor(colors); m != 3 {
		t.Fatalf("MaxColor = %d, want 3", m)
	}
	if m := MaxColor([]int32{Uncolored}); m != Uncolored {
		t.Fatalf("MaxColor of uncolored = %d", m)
	}
}

func TestOrientation(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 0)})
	o := NewOrientation(3)
	// 0->1, 1->2, 2->0: a directed cycle, out-degree 1 everywhere.
	o.FromU[0], o.FromU[1], o.FromU[2] = true, true, true
	if MaxOutDegree(g, o) != 1 {
		t.Fatalf("max out-degree = %d, want 1", MaxOutDegree(g, o))
	}
	if OrientationAcyclic(g, o) {
		t.Fatal("directed triangle reported acyclic")
	}
	// Re-orient 2->0 as 0->2: now acyclic with out-degree 2 at vertex 0.
	o.FromU[2] = false
	if !OrientationAcyclic(g, o) {
		t.Fatal("acyclic orientation reported cyclic")
	}
	out := OutDegrees(g, o)
	if out[0] != 2 || out[1] != 1 || out[2] != 0 {
		t.Fatalf("out-degrees = %v", out)
	}
	if o.Tail(g, 2) != 0 || o.Head(g, 2) != 2 {
		t.Fatal("Tail/Head inconsistent")
	}
}

func TestPseudoForestDecomposition(t *testing.T) {
	// One cycle per component is allowed...
	tri := triangle()
	if err := PseudoForestDecomposition(tri, []int32{0, 0, 0}, 1); err != nil {
		t.Fatalf("single cycle rejected: %v", err)
	}
	// ...but two cycles sharing a component are not: theta graph
	// (two vertices joined by three parallel paths of length 1).
	theta := graph.MustNew(2, []graph.Edge{graph.E(0, 1), graph.E(0, 1), graph.E(0, 1)})
	if err := PseudoForestDecomposition(theta, []int32{0, 0, 0}, 1); err == nil {
		t.Fatal("double cycle accepted")
	}
	if err := PseudoForestDecomposition(theta, []int32{0, 0, 1}, 2); err != nil {
		t.Fatalf("valid 2-pseudo-forest rejected: %v", err)
	}
	// Range errors still caught.
	if err := PseudoForestDecomposition(tri, []int32{0, 0, 5}, 2); err == nil {
		t.Fatal("out-of-range color accepted")
	}
}

// The reference oracles below are the class checks as they were before
// the one-pass walk: a map from color to edge IDs, a subgraph per color,
// graph.Components for the component counts and a double-sweep BFS per
// tree for the diameter. They are slow (O(n) per color and per tree) but
// independent of the walk.

func oracleClasses(colors []int32) map[int32][]int32 {
	byColor := make(map[int32][]int32)
	for id, c := range colors {
		if c >= 0 {
			byColor[c] = append(byColor[c], int32(id))
		}
	}
	return byColor
}

// oracleAcyclic reports whether every color class is a forest.
func oracleAcyclic(g *graph.Graph, colors []int32) bool {
	for _, ids := range oracleClasses(colors) {
		if sub, _ := g.SubgraphOfEdges(ids); !sub.IsForest() {
			return false
		}
	}
	return true
}

// oraclePseudoForest reports whether every component of every color
// class has at most as many edges as vertices.
func oraclePseudoForest(g *graph.Graph, colors []int32) bool {
	for _, ids := range oracleClasses(colors) {
		sub, _ := g.SubgraphOfEdges(ids)
		label, count := sub.Components()
		edgeCount := make([]int, count)
		vertCount := make([]int, count)
		seen := make(map[int32]bool)
		for _, id := range ids {
			e := g.Edge(id)
			edgeCount[label[e.U]]++
			for _, v := range [2]int32{e.U, e.V} {
				if !seen[v] {
					seen[v] = true
					vertCount[label[v]]++
				}
			}
		}
		for comp := range edgeCount {
			if edgeCount[comp] > vertCount[comp] {
				return false
			}
		}
	}
	return true
}

// oracleStar reports whether every color class is a star forest.
func oracleStar(g *graph.Graph, colors []int32) bool {
	if !oracleAcyclic(g, colors) {
		return false
	}
	deg := make(map[[2]int32]int) // (color, vertex) -> monochromatic degree
	for id, c := range colors {
		e := g.Edge(int32(id))
		deg[[2]int32{c, e.U}]++
		deg[[2]int32{c, e.V}]++
	}
	for id, c := range colors {
		e := g.Edge(int32(id))
		if deg[[2]int32{c, e.U}] >= 2 && deg[[2]int32{c, e.V}] >= 2 {
			return false
		}
	}
	return true
}

// oracleMaxForestDiameter is the maximum over colors of forestDiameter
// of the color's subgraph.
func oracleMaxForestDiameter(g *graph.Graph, colors []int32) int {
	maxDiam := 0
	for _, ids := range oracleClasses(colors) {
		sub, _ := g.SubgraphOfEdges(ids)
		maxDiam = max(maxDiam, forestDiameter(sub))
	}
	return maxDiam
}

// forestDiameter returns the maximum diameter of any component of the
// given forest using the classic double-sweep (exact on trees).
func forestDiameter(f *graph.Graph) int {
	visited := make([]bool, f.N())
	maxDiam := 0
	for v := int32(0); int(v) < f.N(); v++ {
		if visited[v] || f.Degree(v) == 0 {
			continue
		}
		// First sweep: find the farthest vertex from v in its component.
		far := v
		farD := 0
		f.BFS([]int32{v}, -1, func(w int32, d int) {
			visited[w] = true
			if d > farD {
				far, farD = w, d
			}
		})
		// Second sweep from the eccentric vertex gives the diameter.
		diam := 0
		f.BFS([]int32{far}, -1, func(_ int32, d int) {
			if d > diam {
				diam = d
			}
		})
		if diam > maxDiam {
			maxDiam = diam
		}
	}
	return maxDiam
}

// CheckAgainstOracles requires every class check to agree with its
// reference oracle on one coloring: the same accept/reject, and where
// the classes are forests the same diameter. It is exported for the
// external test package, which can import the algorithms that
// themselves import verify.
func CheckAgainstOracles(t testing.TB, g *graph.Graph, colors []int32) {
	t.Helper()
	k := int(MaxColor(colors)) + 1
	acyclic := oracleAcyclic(g, colors)
	if got := PartialForestDecomposition(g, colors, k) == nil; got != acyclic {
		t.Errorf("PartialForestDecomposition accepts = %v, oracle %v", got, acyclic)
	}
	diam := MaxForestDiameter(g, colors) // value unspecified on a cycle, but no panic
	if acyclic {
		if want := oracleMaxForestDiameter(g, colors); diam != want {
			t.Errorf("MaxForestDiameter = %d, oracle %d", diam, want)
		}
	}
	if slices.Contains(colors, Uncolored) {
		return
	}
	if got := ForestDecomposition(g, colors, k) == nil; got != acyclic {
		t.Errorf("ForestDecomposition accepts = %v, oracle %v", got, acyclic)
	}
	if d, err := Forests(g, colors, k); (err == nil) != acyclic || (acyclic && d != diam) {
		t.Errorf("Forests = %d, %v; oracle acyclic %v, diameter %d", d, err, acyclic, diam)
	}
	if got, want := PseudoForestDecomposition(g, colors, k) == nil, oraclePseudoForest(g, colors); got != want {
		t.Errorf("PseudoForestDecomposition accepts = %v, oracle %v", got, want)
	}
	if got, want := StarForestDecomposition(g, colors, k) == nil, oracleStar(g, colors); got != want {
		t.Errorf("StarForestDecomposition accepts = %v, oracle %v", got, want)
	}
}

// randomForests returns the union of `forests` random forests on n
// vertices, each color class one forest of up to `trees` random trees
// over a random part of the vertices, so many vertices are isolated in
// a class and some in the whole graph. Different forests may repeat an
// edge: the result is a multigraph.
func randomForests(r *rng.Source, n, forests, trees int) (*graph.Graph, []int32) {
	var edges []graph.Edge
	var colors []int32
	for f := 0; f < forests; f++ {
		perm := r.Perm(n)
		for t, at := 0, 0; t < trees && at < n; t++ {
			size := 1 + r.Intn(2*n/trees+1)
			part := perm[at:min(at+size, n)]
			at += size
			for i := 1; i < len(part); i++ {
				edges = append(edges, graph.E(int32(part[i]), int32(part[r.Intn(i)])))
				colors = append(colors, int32(f))
			}
		}
	}
	return graph.MustNew(n, edges), colors
}

// randomMultigraph returns m random edges on n vertices, parallel edges
// allowed, colored uniformly from k colors: most classes on a dense
// draw have cycles, on a sparse one few do.
func randomMultigraph(r *rng.Source, n, m, k int) (*graph.Graph, []int32) {
	edges := make([]graph.Edge, 0, m)
	colors := make([]int32, 0, m)
	for len(edges) < m {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			edges = append(edges, graph.E(u, v))
			colors = append(colors, int32(r.Intn(k)))
		}
	}
	return graph.MustNew(n, edges), colors
}

func TestClassWalkMatchesOraclesOnRandomForests(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(400)
		g, colors := randomForests(r, n, 1+r.Intn(5), 1+r.Intn(n))
		t.Run(fmt.Sprintf("n=%d,m=%d", n, g.M()), func(t *testing.T) {
			if err := ForestDecomposition(g, colors, int(MaxColor(colors))+1); err != nil {
				t.Fatalf("union of forests rejected: %v", err)
			}
			CheckAgainstOracles(t, g, colors)
		})
	}
}

func TestClassWalkMatchesOraclesOnRandomMultigraphs(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(30)
		g, colors := randomMultigraph(r, n, 1+r.Intn(3*n), 1+r.Intn(6))
		CheckAgainstOracles(t, g, colors)
		if t.Failed() {
			t.Fatalf("trial %d: n=%d edges=%v colors=%v", trial, n, g.Edges(), colors)
		}
	}
}

// TestClassWalkPartialAndGappedColorings uncolors some edges and spreads
// the colors apart, so classes are sparse in the color range.
func TestClassWalkPartialAndGappedColorings(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		var g *graph.Graph
		var colors []int32
		if trial%2 == 0 {
			g, colors = randomForests(r, 2+r.Intn(200), 1+r.Intn(4), 1+r.Intn(50))
		} else {
			n := 2 + r.Intn(30)
			g, colors = randomMultigraph(r, n, 1+r.Intn(2*n), 1+r.Intn(4))
		}
		gap := int32(1 + r.Intn(1000))
		for id := range colors {
			colors[id] = colors[id]*gap + 3
		}
		CheckAgainstOracles(t, g, colors)
		for id := range colors {
			if r.Bernoulli(0.3) {
				colors[id] = Uncolored
			}
		}
		CheckAgainstOracles(t, g, colors)
		if t.Failed() {
			t.Fatalf("trial %d: edges=%v colors=%v", trial, g.Edges(), colors)
		}
	}
}

// TestClassWalkHugeColors uses colors of 2^16 and more, which take the
// sort's second pass, without allocating anything near the color range.
// The classes interleave by edge ID and share their low 16 bits, so a
// sort on the low bits alone would split them.
func TestClassWalkHugeColors(t *testing.T) {
	const a, b, c = 1 << 30, 1 << 16, 1<<31 - 1
	g := graph.MustNew(6, []graph.Edge{graph.E(0, 1), graph.E(3, 4), graph.E(1, 2), graph.E(4, 5), graph.E(2, 0)})
	colors := []int32{a, b, a, b, c}
	CheckAgainstOracles(t, g, colors)
	if d, err := Forests(g, colors, c+1); err != nil || d != 2 {
		t.Fatalf("Forests = %d, %v; want diameter 2 (paths 0-1-2 and 3-4-5)", d, err)
	}
	if b := allocBytes(func() { MaxForestDiameter(g, colors) }); b > 1<<20 {
		t.Fatalf("walk allocated %d bytes for 5 edges", b)
	}
	colors[4] = a
	if err := ForestDecomposition(g, colors, c+1); err == nil {
		t.Fatal("monochromatic triangle accepted")
	}
}

func TestClassWalkMultigraph(t *testing.T) {
	// A same-colored parallel pair is a cycle: not a forest, but a
	// pseudo-forest.
	g := graph.MustNew(3, []graph.Edge{graph.E(0, 1), graph.E(0, 1), graph.E(1, 2)})
	if err := ForestDecomposition(g, []int32{0, 0, 1}, 2); err == nil {
		t.Fatal("same-colored parallel pair accepted as a forest")
	}
	if err := PseudoForestDecomposition(g, []int32{0, 0, 1}, 2); err != nil {
		t.Fatalf("parallel pair rejected as a pseudo-forest: %v", err)
	}
	d, err := Forests(g, []int32{0, 1, 0}, 2)
	if err != nil || d != 2 {
		t.Fatalf("Forests = %d, %v; want diameter 2 (path 0-1-2 in color 0)", d, err)
	}
	for _, colors := range [][]int32{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 1, 1}} {
		CheckAgainstOracles(t, g, colors)
	}
}

// TestClassWalkReportsLowestColor: a violation is reported at the
// lowest color that has one, on every call.
func TestClassWalkReportsLowestColor(t *testing.T) {
	// Monochromatic triangles in colors 7, 3 and 5 (one cycle each),
	// three parallel edges between 9 and 10 in color 6 and three more in
	// color 4 (two cycles each), and paths of length 3 in colors 8 and 2.
	edges := []graph.Edge{
		graph.E(0, 1), graph.E(1, 2), graph.E(2, 0),
		graph.E(3, 4), graph.E(4, 5), graph.E(5, 3),
		graph.E(6, 7), graph.E(7, 8), graph.E(8, 6),
		graph.E(9, 10), graph.E(9, 10), graph.E(9, 10),
		graph.E(9, 10), graph.E(9, 10), graph.E(9, 10),
		graph.E(11, 12), graph.E(12, 13), graph.E(13, 14),
		graph.E(15, 16), graph.E(16, 17), graph.E(17, 18),
	}
	colors := []int32{7, 7, 7, 3, 3, 3, 5, 5, 5, 6, 6, 6, 4, 4, 4, 8, 8, 8, 2, 2, 2}
	g := graph.MustNew(19, edges)
	for i := 0; i < 20; i++ {
		for _, c := range []struct {
			check func(*graph.Graph, []int32, int) error
			want  string
		}{
			{ForestDecomposition, "color 3 "},
			{PseudoForestDecomposition, "color 4 "},
		} {
			if err := c.check(g, colors, 9); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one at %q", err, c.want)
			}
		}
	}
	// Without cycles, the star check reports the lowest class with two
	// adjacent centers: the length-3 paths in colors 8 and 2.
	star := graph.MustNew(19, edges[15:])
	if err := StarForestDecomposition(star, colors[15:], 9); err == nil || !strings.Contains(err.Error(), "color 2 ") {
		t.Fatalf("error %v, want one at color 2", err)
	}
}

// TestClassWalkStarVersusCycle: the star check reports a cycle before
// a class that is not a star forest, whichever color is lower, and
// otherwise names the lowest-ID edge joining two centers.
func TestClassWalkStarVersusCycle(t *testing.T) {
	// Paths 0-1-2-3 and 4-5-6-7, whose center edges are 3 (1-2) and
	// 5 (5-6), and the triangle 8-9-10.
	g := graph.MustNew(11, []graph.Edge{
		graph.E(4, 5), graph.E(6, 7), graph.E(0, 1), graph.E(1, 2), graph.E(2, 3), graph.E(5, 6),
		graph.E(8, 9), graph.E(9, 10), graph.E(10, 8),
	})
	for _, c := range []struct{ paths, triangle int32 }{{0, 1}, {1, 0}} {
		colors := []int32{c.paths, c.paths, c.paths, c.paths, c.paths, c.paths, c.triangle, c.triangle, c.triangle}
		want := fmt.Sprintf("verify: color %d contains a cycle through edge 8 (10-8)", c.triangle)
		if err := StarForestDecomposition(g, colors, 2); err == nil || err.Error() != want {
			t.Errorf("paths %d, triangle %d: error %v, want %q", c.paths, c.triangle, err, want)
		}
		CheckAgainstOracles(t, g, colors)
	}
	// The triangle becomes a path in color 0 and an edge in color 2.
	colors := []int32{1, 1, 1, 1, 1, 1, 0, 0, 2}
	want := "verify: color 1 is not a star forest: edge 3 joins two centers (1-2)"
	if err := StarForestDecomposition(g, colors, 3); err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
	CheckAgainstOracles(t, g, colors)
}

// TestClassWalkHalfDenseClass: a class with exactly n/2 edges scans every
// vertex for leaves, and its leaves all have IDs in the upper half. The
// other class is sparse, and its leaves are only second endpoints.
func TestClassWalkHalfDenseClass(t *testing.T) {
	// Color 0: the tree 4-0, 0-5, 0-6, 6-7 (4 edges, n = 8, diameter
	// 3 along 4-0-6-7). Color 1: the path 1-2-3 as edges 2-1 and 2-3.
	g := graph.MustNew(8, []graph.Edge{
		graph.E(4, 0), graph.E(0, 5), graph.E(0, 6), graph.E(6, 7), graph.E(2, 1), graph.E(2, 3),
	})
	const u = Uncolored
	for _, c := range []struct {
		colors   []int32
		diameter int
	}{
		{[]int32{0, 0, 0, 0, 1, 1}, 3},
		{[]int32{1, 1, 1, 1, 0, 0}, 3},
		{[]int32{0, 0, 0, 0, u, u}, 3},
		{[]int32{u, u, u, u, 0, 0}, 2},
	} {
		if d := MaxForestDiameter(g, c.colors); d != c.diameter {
			t.Errorf("colors %v: diameter %d, want %d", c.colors, d, c.diameter)
		}
		CheckAgainstOracles(t, g, c.colors)
	}
}

func TestMaxForestDiameterCyclicClassDoesNotPanic(t *testing.T) {
	// A triangle with a pendant path, a theta multigraph, and a tree
	// hanging between two cycles: none of it can be peeled away whole.
	g := graph.MustNew(9, []graph.Edge{
		graph.E(0, 1), graph.E(1, 2), graph.E(2, 0), graph.E(2, 3), graph.E(3, 4),
		graph.E(5, 6), graph.E(5, 6), graph.E(5, 6), graph.E(6, 7), graph.E(7, 8),
	})
	for _, colors := range [][]int32{
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 1, 0, 1, 1, 0, 1, 1},
		{0, 0, 0, 0, 0, 1, 1, 1, 1, 1},
	} {
		MaxForestDiameter(g, colors)
		CheckAgainstOracles(t, g, colors)
	}
}

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestClassWalkAllocationLinear bounds a call's allocation by a constant
// times n+m on a forest of many trees; a per-tree or per-color O(n)
// scratch would exceed it by orders of magnitude.
func TestClassWalkAllocationLinear(t *testing.T) {
	const trees, size = 5000, 4
	r := rng.New(4)
	var edges []graph.Edge
	var colors []int32
	for tree := 0; tree < trees; tree++ {
		base := int32(tree * size)
		for i := 1; i < size; i++ {
			edges = append(edges, graph.E(base+int32(i), base+int32(r.Intn(i))))
			colors = append(colors, int32(r.Intn(3)))
		}
	}
	g := graph.MustNew(trees*size, edges)
	limit := uint64(64 * (g.N() + g.M()))
	for name, f := range map[string]func(){
		"MaxForestDiameter": func() { MaxForestDiameter(g, colors) },
		"ForestDecomposition": func() {
			if err := ForestDecomposition(g, colors, 3); err != nil {
				t.Fatal(err)
			}
		},
	} {
		f() // warm up
		if b := allocBytes(f); b > limit {
			t.Errorf("%s allocated %d bytes for n=%d, m=%d; want <= %d", name, b, g.N(), g.M(), limit)
		}
	}
}
