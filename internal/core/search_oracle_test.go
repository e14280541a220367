package core

import (
	"reflect"
	"testing"

	"nwforest/internal/forest"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

// pathFirstSearch is the reference for FindAugmenting: Algorithm 1 with
// every C(x, c) materialized and enqueued in palette order until the
// first empty one, so the paths of a terminal edge's connected colors
// are followed too. It must return FindAugmenting's sequence, Length,
// Radius and GrowthSizes; its Visited may only be larger.
func pathFirstSearch(s *Searcher, palettes [][]int32, start int32,
	withinSearch, withinPath func(int32) bool, maxVisited int) (Sequence, SearchStats) {

	var stats SearchStats
	st, g := s.st, s.g
	ep := s.nextEpoch()
	s.viaEpoch[start] = ep
	s.viaNode[start] = searchNode{parentEdge: -1, color: -1}
	visited := 1
	s.queue = append(s.queue[:0], start)
	frontierEnd := 1
	for head := 0; head < len(s.queue); head++ {
		if head == frontierEnd {
			stats.GrowthSizes = append(stats.GrowthSizes, len(s.queue))
			frontierEnd = len(s.queue)
		}
		x := s.queue[head]
		e := g.Edge(x)
		cur := st.Color(x)
		for _, c := range palettes[x] {
			if c == cur {
				continue
			}
			path := st.PathInColorWith(s.fsc, c, e.U, e.V, withinPath)
			if path == nil {
				seq := shortCircuit(st, s.fsc, s.backtrack(x, c), withinPath)
				stats.Visited = visited
				stats.Length = len(seq)
				stats.Radius = s.seqRadius(seq)
				return seq, stats
			}
			for _, y := range path {
				if s.viaEpoch[y] == ep {
					continue
				}
				ye := g.Edge(y)
				if withinSearch != nil && !(withinSearch(ye.U) && withinSearch(ye.V)) {
					continue
				}
				s.viaEpoch[y] = ep
				s.viaNode[y] = searchNode{parentEdge: x, color: c}
				visited++
				s.queue = append(s.queue, y)
			}
		}
		if maxVisited > 0 && visited > maxVisited {
			break
		}
	}
	stats.Visited = visited
	return nil, stats
}

// randomLists gives each edge a random palette of 2..k distinct colors
// from {0, ..., k-1}, in random order.
func randomLists(m, k int, r *rng.Source) [][]int32 {
	out := make([][]int32, m)
	for id := range out {
		perm := r.Perm(k)
		pal := make([]int32, 2+r.Intn(k-1))
		for i := range pal {
			pal[i] = int32(perm[i])
		}
		out[id] = pal
	}
	return out
}

// randomRegion returns nil a third of the time, and otherwise a vertex
// predicate true on each vertex with probability 0.97 or 0.8.
func randomRegion(n int, r *rng.Source) func(int32) bool {
	p := [3]float64{0, 0.97, 0.8}[r.Intn(3)]
	if p == 0 {
		return nil
	}
	in := make([]bool, n)
	for v := range in {
		in[v] = r.Bernoulli(p)
	}
	return func(v int32) bool { return in[v] }
}

// TestFindAugmentingMatchesPathFirst checks FindAugmenting against
// pathFirstSearch on random partial colorings: forest unions, small
// roads and multigraphs with parallel edges, under full palettes and
// random lists, nil and random regions, and visit caps small enough to
// trip. Every sequence found without a path region is applied before
// the next search, so later searches run on evolving forests.
func TestFindAugmentingMatchesPathFirst(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		k     int
		lists bool
	}{
		{"union-tight", gen.ForestUnion(120, 3, 1), 3, false},
		{"union-eps", gen.ForestUnion(160, 4, 2), 5, false},
		{"road", gen.RoadNetwork(12, 12, 3), 2, false},
		{"road-3", gen.RoadNetwork(10, 14, 4), 3, false},
		{"multigraph", gen.LineMultigraph(40, 3), 3, false},
		{"union-lists", gen.ForestUnion(150, 3, 6), 6, true},
		{"multigraph-lists", gen.MultiplyEdges(gen.ForestUnion(60, 2, 5), 2), 6, true},
		{"clique", gen.Clique(10), 5, false},
	}
	var searches, grown, capped, exhausted, shrunk int
	for _, tc := range cases {
		for seed := uint64(1); seed <= 8; seed++ {
			g := tc.g
			r := rng.New(seed)
			palettes := FullPalettes(g.M(), tc.k)
			if tc.lists {
				palettes = randomLists(g.M(), tc.k, r)
			}
			// Color nine edges in ten greedily, in random order, each
			// with a random free color of its palette: the edges left
			// without one need searches that grow.
			st := forest.New(g)
			for _, i := range r.Perm(g.M()) {
				id := int32(i)
				e := g.Edge(id)
				pal := palettes[id]
				if !r.Bernoulli(0.9) {
					continue
				}
				for _, j := range r.Perm(len(pal)) {
					if !st.ConnectedInColor(pal[j], e.U, e.V, nil) {
						st.SetColor(id, pal[j])
						break
					}
				}
			}
			oracle, fast := NewSearcher(st), NewSearcher(st)
			for pass := 0; pass < 2; pass++ {
				for _, i := range r.Perm(g.M()) {
					id := int32(i)
					if st.Color(id) != verify.Uncolored {
						continue
					}
					withinSearch, withinPath := randomRegion(g.N(), r), randomRegion(g.N(), r)
					if r.Bernoulli(0.15) {
						// Only the start edge and its parallels may join.
						e := g.Edge(id)
						withinSearch = func(v int32) bool { return v == e.U || v == e.V }
					}
					maxVisited := 0
					if r.Bernoulli(0.3) {
						maxVisited = 1 + r.Intn(6)
					}
					want, ws := pathFirstSearch(oracle, palettes, id, withinSearch, withinPath, maxVisited)
					got, gs := fast.FindAugmenting(palettes, id, withinSearch, withinPath, maxVisited)
					searches++
					if !reflect.DeepEqual(got, want) || gs.Length != ws.Length || gs.Radius != ws.Radius ||
						!reflect.DeepEqual(gs.GrowthSizes, ws.GrowthSizes) {
						t.Fatalf("%s seed %d, edge %d (cap %d): got %v %+v, path-first %v %+v",
							tc.name, seed, id, maxVisited, got, gs, want, ws)
					}
					switch {
					case gs.Visited > ws.Visited || (got == nil && gs.Visited != ws.Visited):
						t.Fatalf("%s seed %d, edge %d: visited %d, path-first %d (found %v)",
							tc.name, seed, id, gs.Visited, ws.Visited, got != nil)
					case gs.Visited < ws.Visited:
						shrunk++
					}
					switch {
					case got != nil:
						if len(got) > 1 {
							grown++
						}
						// A path leaving withinPath counts as absent, so
						// only an unrestricted sequence keeps every class
						// a forest.
						if withinPath != nil {
							break
						}
						Apply(st, got)
						if err := verify.PartialForestDecomposition(g, st.Colors(), tc.k); err != nil {
							t.Fatalf("%s seed %d, after edge %d: %v", tc.name, seed, id, err)
						}
					case maxVisited > 0 && gs.Visited > maxVisited:
						capped++
					default:
						exhausted++
					}
				}
			}
			if err := verify.RespectsPalettes(st.Colors(), palettes); err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
		}
	}
	t.Logf("%d searches: %d sequences longer than one step, %d capped, %d exhausted, %d with fewer edges visited",
		searches, grown, capped, exhausted, shrunk)
	if grown == 0 || capped == 0 || exhausted == 0 || shrunk == 0 {
		t.Fatal("the random cases no longer cover grown, capped, exhausted and shortened searches")
	}
}

// TestFindAugmentingAllocs pins the search's allocation contract on a
// warmed Searcher: when the start edge's free color comes after several
// connected ones, the search allocates only the sequence it returns.
func TestFindAugmentingAllocs(t *testing.T) {
	const n, k = 200, 3
	base := gen.ForestUnion(n, k, 1)
	g := graph.MustNew(n, append(append([]graph.Edge(nil), base.Edges()...), graph.E(0, 1)))
	start := int32(g.M() - 1)
	colors := make([]int32, g.M())
	for id := range colors {
		colors[id] = int32(id / (n - 1)) // one color per spanning tree
	}
	colors[start] = verify.Uncolored
	st := forest.FromColors(g, colors)
	palettes := FullPalettes(g.M(), k+1)
	s := NewSearcher(st)
	want := Sequence{{Edge: start, Color: k}}
	if seq, _ := s.FindAugmenting(palettes, start, nil, nil, 0); !reflect.DeepEqual(seq, want) {
		t.Fatalf("search from %d = %v, want %v", start, seq, want)
	}
	if a := testing.AllocsPerRun(20, func() {
		s.FindAugmenting(palettes, start, nil, nil, 0)
	}); a != 1 {
		t.Fatalf("a search with %d connected colors before its free one allocates %.1f, want 1 (its sequence)", k, a)
	}
}
