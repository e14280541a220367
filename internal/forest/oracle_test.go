package forest

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/rng"
	"nwforest/internal/unionfind"
	"nwforest/internal/verify"
)

// oraclePath is the one-sided BFS the path search replaced, kept as its
// reference: it scans u's c-tree through the region until it reaches v
// and rebuilds the path from v back to u. It has its own buffers, so it
// shares nothing with Scratch.
func oraclePath(s *State, c, u, v int32, within func(int32) bool) []int32 {
	if u == v {
		return []int32{}
	}
	g := s.Graph()
	seen := make([]bool, g.N())
	parentEdge := make([]int32, g.N())
	seen[u] = true
	queue := []int32{u}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, id := range s.IncidentInColor(x, c) {
			y := s.edges[id].Other(x)
			if seen[y] {
				continue
			}
			seen[y] = true
			parentEdge[y] = id
			if y == v {
				var path []int32
				for cur := v; cur != u; {
					pe := parentEdge[cur]
					path = append(path, pe)
					cur = s.edges[pe].Other(cur)
				}
				return path
			}
			if within == nil || within(y) {
				queue = append(queue, y)
			}
		}
	}
	return nil
}

// randomForestColors gives each edge a random color in [0, k) or leaves
// it uncolored, and uncolors any edge that would close a cycle in its
// class, so every class is a forest.
func randomForestColors(g *graph.Graph, k int, src *rng.Source) []int32 {
	classes := make([]*unionfind.DSU, k)
	for c := range classes {
		classes[c] = unionfind.New(g.N())
	}
	colors := make([]int32, g.M())
	for id := range colors {
		c := int32(src.Intn(k+1)) - 1
		if e := g.Edge(int32(id)); c >= 0 && !classes[c].Union(int(e.U), int(e.V)) {
			c = verify.Uncolored
		}
		colors[id] = c
	}
	return colors
}

// withParallels returns g plus a second copy of every fifth edge, so a
// random coloring puts parallel edges in different classes.
func withParallels(g *graph.Graph) *graph.Graph {
	edges := append([]graph.Edge(nil), g.Edges()...)
	for id := 0; id < g.M(); id += 5 {
		edges = append(edges, g.Edge(int32(id)))
	}
	return graph.MustNew(g.N(), edges)
}

// stateWith builds a State with the given coloring by FromColors (bulk)
// or by SetColor in edge-ID order.
func stateWith(g *graph.Graph, colors []int32, bulk bool) *State {
	if bulk {
		return FromColors(g, colors)
	}
	s := New(g)
	for id, c := range colors {
		if c != verify.Uncolored {
			s.SetColor(int32(id), c)
		}
	}
	return s
}

// randomRegion returns a within callback holding each vertex with
// probability p, or nil (no region) for p >= 1.
func randomRegion(n int, p float64, src *rng.Source) func(int32) bool {
	if p >= 1 {
		return nil
	}
	in := make([]bool, n)
	for v := range in {
		in[v] = src.Float64() < p
	}
	return func(v int32) bool { return in[v] }
}

// checkQuery compares both entry points on sc against the oracle.
func checkQuery(t *testing.T, s *State, sc *Scratch, c, u, v int32, within func(int32) bool) {
	t.Helper()
	want := oraclePath(s, c, u, v, within)
	if got := s.PathInColorWith(sc, c, u, v, within); !reflect.DeepEqual(got, want) {
		t.Fatalf("PathInColorWith(c=%d, %d, %d) = %v, oracle %v", c, u, v, got, want)
	}
	if got := s.ConnectedInColorWith(sc, c, u, v, within); got != (want != nil) {
		t.Fatalf("ConnectedInColorWith(c=%d, %d, %d) = %v, oracle path %v", c, u, v, got, want)
	}
}

// TestSearchMatchesOracle compares the parent-pointer walk with the
// one-sided BFS on random multigraph forests, built both by FromColors
// and by SetColor, under random regions: thousands of queries on one
// reused Scratch. Interleaved component queries share the Scratch's
// epochs. Deep trees, linked and cut between query rounds, follow.
func TestSearchMatchesOracle(t *testing.T) {
	const k = 3
	for _, bulk := range []bool{true, false} {
		for seed := uint64(1); seed <= 4; seed++ {
			src := rng.New(seed)
			g := withParallels(randomGraph(300, 900, seed))
			s := stateWith(g, randomForestColors(g, k, src), bulk)
			sc := NewScratch(g.N())
			for _, p := range []float64{0.5, 0.8, 0.95, 1} {
				within := randomRegion(g.N(), p, src)
				for q := 0; q < 1000; q++ {
					c := int32(src.Intn(k))
					u, v := int32(src.Intn(g.N())), int32(src.Intn(g.N()))
					if q%8 == 0 {
						v = u
					}
					checkQuery(t, s, sc, c, u, v, within)
					if q%7 == 0 {
						want := s.ComponentInColorWith(NewScratch(g.N()), c, u)
						if got := s.ComponentInColorWith(sc, c, u); !reflect.DeepEqual(got, want) {
							t.Fatalf("ComponentInColorWith(%d, %d) on a reused Scratch diverged", c, u)
						}
					}
				}
			}
		}
	}
	// Deep trees: a 3000-vertex path and a caterpillar (a 600-vertex
	// spine with three legs per vertex) in color 0, with uncolored
	// chords, queried between rounds of links and cuts. Near probes sit
	// a few hops apart on the tree, far probes anywhere.
	for _, bulk := range []bool{true, false} {
		for gi, g := range []*graph.Graph{caterpillar(3000, 0, 300, 11), caterpillar(600, 3, 300, 12)} {
			src := rng.New(uint64(20 + gi))
			colors := make([]int32, g.M())
			for id := range colors {
				colors[id] = verify.Uncolored
				if id < g.N()-1 {
					colors[id] = 0
				}
			}
			s := stateWith(g, colors, bulk)
			sc := NewScratch(g.N())
			for round := 0; round < 10; round++ {
				within := randomRegion(g.N(), []float64{0.99, 1}[round%2], src)
				for q := 0; q < 40; q++ {
					u, v := int32(src.Intn(g.N())), int32(src.Intn(g.N()))
					if q%2 == 0 {
						// A near probe: a short random walk from u.
						v = u
						for h := src.Intn(5); h > 0; h-- {
							if ids := s.IncidentInColor(v, 0); len(ids) > 0 {
								v = g.Edge(ids[src.Intn(len(ids))]).Other(v)
							}
						}
					}
					checkQuery(t, s, sc, 0, u, v, within)
				}
				churn(s, 0, 30, src)
			}
		}
	}
}

// caterpillar returns a spine of the given length with legs leaves at
// every spine vertex, as edges 0.. in spine-then-leaf order, plus extra
// random chords after them: one deep tree whose chords can link and cut.
func caterpillar(spine, legs, chords int, seed uint64) *graph.Graph {
	n := spine * (1 + legs)
	var edges []graph.Edge
	for x := 1; x < spine; x++ {
		edges = append(edges, graph.E(int32(x-1), int32(x)))
	}
	for x := 0; x < spine; x++ {
		for l := 1; l <= legs; l++ {
			edges = append(edges, graph.E(int32(x), int32(spine*l+x)))
		}
	}
	src := rng.New(seed)
	for len(edges) < n-1+chords {
		if u, v := int32(src.Intn(n)), int32(src.Intn(n)); u != v {
			edges = append(edges, graph.E(u, v))
		}
	}
	return graph.MustNew(n, edges)
}

// churn cuts and links edges in color c between query rounds: it
// uncolors random c-edges and colors random uncolored edges c where the
// one-sided BFS finds their endpoints disconnected, so the class stays
// a forest while its trees split, rejoin and reroot.
func churn(s *State, c int32, ops int, src *rng.Source) {
	g := s.Graph()
	for i := 0; i < ops; i++ {
		id := int32(src.Intn(g.M()))
		switch e := g.Edge(id); s.Color(id) {
		case c:
			s.SetColor(id, verify.Uncolored)
		case verify.Uncolored:
			if oraclePath(s, c, e.U, e.V, nil) == nil {
				s.SetColor(id, c)
			}
		}
	}
}

// TestSearchRegionCases pins the region and endpoint rules on small
// forests. Leaf decoys at an endpoint give that side more pending
// vertices, so the other side expands and the two meet where the case
// needs them to.
func TestSearchRegionCases(t *testing.T) {
	type edge struct{ u, v, c int32 }
	// path is the color-0 path 0-1-...-(n-1) as edges 0..n-2.
	path := func(n int32) []edge {
		var es []edge
		for x := int32(0); x+1 < n; x++ {
			es = append(es, edge{x, x + 1, 0})
		}
		return es
	}
	leaves := func(at int32, first, count int32) []edge {
		var es []edge
		for i := int32(0); i < count; i++ {
			es = append(es, edge{at, first + i, 0})
		}
		return es
	}
	cat := func(parts ...[]edge) []edge {
		var es []edge
		for _, p := range parts {
			es = append(es, p...)
		}
		return es
	}
	cases := []struct {
		name    string
		n       int
		edges   []edge
		c, u, v int32
		out     []int32 // vertices outside the region (nil = no region)
		want    []int32 // edge IDs from v to u; nil = not found
	}{
		{"whole path in region", 5, path(5), 0, 0, 4, nil, []int32{3, 2, 1, 0}},
		{"reverse query", 5, path(5), 0, 4, 0, nil, []int32{0, 1, 2, 3}},
		{"endpoints outside the region", 3, path(3), 0, 0, 2, []int32{0, 2}, []int32{1, 0}},
		{"meeting at an outside interior vertex", 7, cat(path(3), leaves(0, 3, 2), leaves(2, 5, 2)), 0, 0, 2, []int32{1}, nil},
		{"leaves at an interior vertex", 9, cat(path(5), leaves(0, 5, 2), leaves(4, 7, 2)), 0, 0, 4, []int32{2}, nil},
		{"leaves at a neighbour of u", 8, cat(path(5), leaves(4, 5, 3)), 0, 0, 4, []int32{1}, nil},
		{"leaves at a neighbour of v", 8, cat(path(5), leaves(0, 5, 3)), 0, 0, 4, []int32{3}, nil},
		{"u == v", 3, path(3), 0, 1, 1, nil, []int32{}},
		{"bare u", 4, cat(path(3), []edge{{3, 0, 1}}), 0, 3, 2, nil, nil},
		{"bare v", 4, cat(path(3), []edge{{3, 0, 1}}), 0, 0, 3, nil, nil},
		{"parallel edges, color 1", 3, []edge{{0, 1, 0}, {0, 1, 1}, {1, 2, 1}, {1, 2, 0}}, 1, 0, 2, nil, []int32{2, 1}},
		{"parallel edges, color 0", 3, []edge{{0, 1, 0}, {0, 1, 1}, {1, 2, 1}, {1, 2, 0}}, 0, 0, 2, nil, []int32{3, 0}},
		{"different trees", 4, []edge{{0, 1, 0}, {2, 3, 0}}, 0, 0, 3, nil, nil},
	}
	for _, tc := range cases {
		edges := make([]graph.Edge, len(tc.edges))
		colors := make([]int32, len(tc.edges))
		for i, e := range tc.edges {
			edges[i], colors[i] = graph.E(e.u, e.v), e.c
		}
		g := graph.MustNew(tc.n, edges)
		var within func(int32) bool
		if tc.out != nil {
			out := make(map[int32]bool)
			for _, x := range tc.out {
				out[x] = true
			}
			within = func(x int32) bool { return !out[x] }
		}
		sc := NewScratch(g.N())
		for _, bulk := range []bool{true, false} {
			s := stateWith(g, colors, bulk)
			if got := s.PathInColorWith(sc, tc.c, tc.u, tc.v, within); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s (bulk=%v): PathInColor = %v, want %v", tc.name, bulk, got, tc.want)
			}
			if got := s.ConnectedInColorWith(sc, tc.c, tc.u, tc.v, within); got != (tc.want != nil) {
				t.Errorf("%s (bulk=%v): ConnectedInColor = %v", tc.name, bulk, got)
			}
			if oracle := oraclePath(s, tc.c, tc.u, tc.v, within); !reflect.DeepEqual(oracle, tc.want) {
				t.Errorf("%s: the oracle itself answers %v", tc.name, oracle)
			}
		}
	}
}

// TestSearchAcrossEpochWraparound stamps a spanning tree with the first
// epoch of a fresh Scratch, moves the epoch to just below uint32
// wraparound and queries across the wrap. The first queries after it
// reuse the lowest epochs, so they must not take the stale stamps for
// either side's marks.
func TestSearchAcrossEpochWraparound(t *testing.T) {
	src := rng.New(5)
	g := gen.ForestUnion(200, 3, 5)
	s := FromColors(g, unionColors(g))
	queries := make([]pathQuery, 300)
	for i := range queries {
		queries[i] = pathQuery{int32(i % 3), int32(src.Intn(g.N())), int32(src.Intn(g.N()))}
	}
	for _, start := range []uint32{math.MaxUint32 - 6, math.MaxUint32 - 5, math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32} {
		sc := NewScratch(g.N())
		s.ComponentInColorWith(sc, 0, 0)
		sc.epoch = start
		// One entry point per query, so consecutive epochs never belong
		// to the same query (a repeat would overwrite exactly the stale
		// stamps it could trip over).
		for i, q := range queries {
			want := oraclePath(s, q.c, q.u, q.v, nil)
			if i%2 == 0 {
				if got := s.PathInColorWith(sc, q.c, q.u, q.v, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("start %d, query %d: PathInColorWith = %v, oracle %v", start, i, got, want)
				}
			} else if got := s.ConnectedInColorWith(sc, q.c, q.u, q.v, nil); got != (want != nil) {
				t.Fatalf("start %d, query %d: ConnectedInColorWith = %v, oracle path %v", start, i, got, want)
			}
		}
	}
}

// oracleRootedTrees is RootedTreesInColorWith as it was before its trees
// shared three arrays, without the root preference no caller set: each
// tree grows its own slices, rooted at its first vertex in region
// order. It has its own buffers, so it shares nothing with Scratch.
func oracleRootedTrees(s *State, c int32, region []int32) []Rooted {
	n := s.Graph().N()
	in, seen := make([]bool, n), make([]bool, n)
	for _, v := range region {
		in[v] = true
	}
	var trees []Rooted
	for _, v := range region {
		if seen[v] || s.DegreeInColor(v, c) == 0 {
			continue
		}
		tr := Rooted{Verts: []int32{v}, Parent: []int32{-1}, Depth: []int32{0}}
		seen[v] = true
		for head := 0; head < len(tr.Verts); head++ {
			x := tr.Verts[head]
			for _, id := range s.IncidentInColor(x, c) {
				y := s.edges[id].Other(x)
				if seen[y] || !in[y] {
					continue
				}
				seen[y] = true
				tr.Verts = append(tr.Verts, y)
				tr.Parent = append(tr.Parent, id)
				tr.Depth = append(tr.Depth, tr.Depth[head]+1)
			}
		}
		trees = append(trees, tr)
	}
	return trees
}

// checkRootedTrees compares RootedTreesInColorWith on sc with the oracle,
// and requires every returned slice to end at its capacity.
func checkRootedTrees(t *testing.T, label string, s *State, sc *Scratch, c int32, region []int32) {
	t.Helper()
	got, want := s.RootedTreesInColorWith(sc, c, region), oracleRootedTrees(s, c, region)
	if len(got) != len(want) {
		t.Fatalf("%s, color %d: %d trees, oracle %d", label, c, len(got), len(want))
	}
	for i, tr := range got {
		w := want[i]
		if !slices.Equal(tr.Verts, w.Verts) || !slices.Equal(tr.Parent, w.Parent) || !slices.Equal(tr.Depth, w.Depth) {
			t.Fatalf("%s, color %d, tree %d: got %+v, oracle %+v", label, c, i, tr, w)
		}
		if cap(tr.Verts) != len(tr.Verts) || cap(tr.Parent) != len(tr.Parent) || cap(tr.Depth) != len(tr.Depth) {
			t.Fatalf("%s, color %d, tree %d: a slice has spare capacity (len %d; caps %d, %d, %d)",
				label, c, i, len(tr.Verts), cap(tr.Verts), cap(tr.Parent), cap(tr.Depth))
		}
	}
}

// randomVertexList returns count random vertices of [0, n) in random
// order, repeats included.
func randomVertexList(n, count int, src *rng.Source) []int32 {
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(src.Intn(n))
	}
	return out
}

// TestRootedTreesMatchOracle compares the shared-array tree walk with
// the per-tree one on random multigraphs, built by FromColors and by
// SetColor and then churned by random recolorings, so incidence lists
// are in swap-delete order. Colorings are random forests and arbitrary
// classes with cycles; regions are every vertex in ID order and random
// lists in random order with repeats; one Scratch serves every query.
func TestRootedTreesMatchOracle(t *testing.T) {
	const k = 4
	for _, bulk := range []bool{true, false} {
		for seed := uint64(1); seed <= 4; seed++ {
			src := rng.New(seed)
			g := withParallels(randomGraph(250, 600, seed))
			all := make([]int32, g.N())
			for v := range all {
				all[v] = int32(v)
			}
			colorings := [][]int32{randomForestColors(g, k, src), make([]int32, g.M())}
			for id := range colorings[1] {
				colorings[1][id] = int32(src.Intn(k+1)) - 1
			}
			sc := NewScratch(g.N())
			for ci, colors := range colorings {
				s := stateWith(g, colors, bulk)
				for round := 0; round < 3; round++ {
					label := fmt.Sprintf("bulk=%v seed %d coloring %d round %d", bulk, seed, ci, round)
					for c := int32(-1); c <= k; c++ {
						checkRootedTrees(t, label+", all", s, sc, c, all)
						for _, size := range []int{1, 20, g.N() / 2, 2 * g.N()} {
							checkRootedTrees(t, label+", random", s, sc, c, randomVertexList(g.N(), size, src))
						}
					}
					for i := 0; i < 100; i++ {
						s.SetColor(randomOp(src, g.M(), k))
					}
				}
			}
		}
	}
}

// TestRootedTreesAcrossEpochWraparound walks trees on one Scratch whose
// epoch moves to just below uint32 wraparound, so the walks after it
// reuse the lowest epochs over stale visitation and region stamps.
func TestRootedTreesAcrossEpochWraparound(t *testing.T) {
	src := rng.New(9)
	g := gen.ForestUnion(200, 3, 9)
	s := FromColors(g, unionColors(g))
	for _, start := range []uint32{math.MaxUint32 - 6, math.MaxUint32 - 5, math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32} {
		sc := NewScratch(g.N())
		s.RootedTreesInColorWith(sc, 0, randomVertexList(g.N(), g.N(), src))
		sc.epoch = start
		for q := 0; q < 40; q++ {
			checkRootedTrees(t, fmt.Sprintf("start %d, query %d", start, q), s, sc, int32(q%3), randomVertexList(g.N(), 1+src.Intn(g.N()), src))
		}
	}
}
