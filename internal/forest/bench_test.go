package forest

import (
	"testing"

	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/rng"
	"nwforest/internal/unionfind"
	"nwforest/internal/verify"
)

// unionColors colors gen.ForestUnion's output by tree: its k spanning
// trees are appended one after another, n-1 edges each.
func unionColors(g *graph.Graph) []int32 {
	colors := make([]int32, g.M())
	for id := range colors {
		colors[id] = int32(id / (g.N() - 1))
	}
	return colors
}

// greedyForestColors gives each edge, in ID order, the lowest of k colors
// whose class it keeps acyclic, or leaves it uncolored. The low classes
// come out spanning, so a query between two vertices of different trees
// of a sparse class is the common not-found case.
func greedyForestColors(g *graph.Graph, k int) []int32 {
	classes := make([]*unionfind.DSU, k)
	for c := range classes {
		classes[c] = unionfind.New(g.N())
	}
	colors := make([]int32, g.M())
	for id := range colors {
		colors[id] = verify.Uncolored
		e := g.Edge(int32(id))
		for c := range classes {
			if classes[c].Union(int(e.U), int(e.V)) {
				colors[id] = int32(c)
				break
			}
		}
	}
	return colors
}

// pathQuery is one C(e, c) probe.
type pathQuery struct{ c, u, v int32 }

// edgeProbes lists the probes Algorithm 1 issues when it explores every
// edge: C(e, c) for each other color c of the k.
func edgeProbes(g *graph.Graph, colors []int32, k int) []pathQuery {
	var qs []pathQuery
	for id, cur := range colors {
		e := g.Edge(int32(id))
		for c := int32(0); c < int32(k); c++ {
			if c != cur {
				qs = append(qs, pathQuery{c, e.U, e.V})
			}
		}
	}
	return qs
}

// TestPathQueryAllocs pins the queries' allocation contract on a warmed
// Scratch over a 10k-vertex forest union: ConnectedInColorWith allocates
// nothing, and PathInColorWith allocates only the path it returns.
func TestPathQueryAllocs(t *testing.T) {
	g := gen.ForestUnion(10000, 3, 1)
	s := FromColors(g, unionColors(g))
	sc := NewScratch(g.N())
	qs := edgeProbes(g, s.colors, 3)[:64]
	found := 0
	for _, q := range qs {
		if s.PathInColorWith(sc, q.c, q.u, q.v, nil) != nil {
			found++
		}
	}
	if found != len(qs) {
		t.Fatalf("%d of %d probes found a path; every class spans", found, len(qs))
	}
	if a := testing.AllocsPerRun(10, func() {
		for _, q := range qs {
			s.ConnectedInColorWith(sc, q.c, q.u, q.v, nil)
		}
	}); a != 0 {
		t.Fatalf("ConnectedInColorWith allocates %.1f per %d queries, want 0", a, len(qs))
	}
	if a := testing.AllocsPerRun(10, func() {
		for _, q := range qs {
			s.PathInColorWith(sc, q.c, q.u, q.v, nil)
		}
	}); a > float64(len(qs)) {
		t.Fatalf("PathInColorWith allocates %.1f per %d queries, want at most one each", a, len(qs))
	}
}

// pathSink keeps BenchmarkPathQuery's results live.
var pathSink []int32

// deepProbes returns count color-0 probes on a one-color tree: near
// ones pair u with the end of a random walk of up to four tree edges
// from it, far ones pair two random vertices.
func deepProbes(s *State, count int, near bool, seed uint64) []pathQuery {
	g := s.Graph()
	src := rng.New(seed)
	qs := make([]pathQuery, count)
	for i := range qs {
		u, v := int32(src.Intn(g.N())), int32(src.Intn(g.N()))
		if near {
			v = u
			for h := 1 + src.Intn(4); h > 0; h-- {
				ids := s.IncidentInColor(v, 0)
				v = g.Edge(ids[src.Intn(len(ids))]).Other(v)
			}
		}
		qs[i] = pathQuery{0, u, v}
	}
	return qs
}

// BenchmarkPathQuery times C(e, c) probes. Two colorings take the probes
// of Algorithm 1 (every edge against every other color): a 3-forest
// union, where every probe finds a path (found-heavy), and a greedy
// 4-coloring of a 96x96 road network, whose sparse upper classes make
// most probes not-found. The deep cases probe one color on a
// caterpillar (a 5000-vertex spine with a leaf per vertex, rooted at a
// spine end, so depths reach 5000) with near and far vertex pairs.
func BenchmarkPathQuery(b *testing.B) {
	union := gen.ForestUnion(2000, 3, 1)
	road := gen.RoadNetwork(96, 96, 1)
	deep := caterpillar(5000, 1, 0, 1)
	deepState := FromColors(deep, make([]int32, deep.M()))
	for _, bc := range []struct {
		name string
		s    *State
		qs   []pathQuery
	}{
		{"found-heavy", FromColors(union, unionColors(union)), edgeProbes(union, unionColors(union), 3)},
		{"not-found-heavy", FromColors(road, greedyForestColors(road, 4)), edgeProbes(road, greedyForestColors(road, 4), 4)},
		{"deep-near", deepState, deepProbes(deepState, 4096, true, 2)},
		{"deep-far", deepState, deepProbes(deepState, 4096, false, 3)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, qs := bc.s, bc.qs
			sc := NewScratch(s.Graph().N())
			found, hops := 0, 0
			for _, q := range qs {
				if p := s.PathInColorWith(sc, q.c, q.u, q.v, nil); p != nil {
					found++
					hops += len(p)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				pathSink = s.PathInColorWith(sc, q.c, q.u, q.v, nil)
			}
			b.ReportMetric(float64(found)/float64(len(qs)), "found/query")
			b.ReportMetric(float64(hops)/float64(max(found, 1)), "hops/found")
		})
	}
}

// BenchmarkSetColorChurn times the rooted-forest updates: each op cuts a
// random colored edge (SetColor to uncolored) and links it back into its
// color, which walks both endpoints to their roots and reroots the
// shallower side. The colorings are BenchmarkPathQuery's forest union
// and road network.
func BenchmarkSetColorChurn(b *testing.B) {
	union := gen.ForestUnion(2000, 3, 1)
	road := gen.RoadNetwork(96, 96, 1)
	for _, bc := range []struct {
		name   string
		g      *graph.Graph
		colors []int32
	}{
		{"forest-union", union, unionColors(union)},
		{"road", road, greedyForestColors(road, 4)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := FromColors(bc.g, bc.colors)
			var ids []int32
			for id, c := range bc.colors {
				if c != verify.Uncolored {
					ids = append(ids, int32(id))
				}
			}
			src := rng.New(4)
			for i := len(ids) - 1; i > 0; i-- {
				j := src.Intn(i + 1)
				ids[i], ids[j] = ids[j], ids[i]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				s.SetColor(id, verify.Uncolored)
				s.SetColor(id, bc.colors[id])
			}
		})
	}
}
