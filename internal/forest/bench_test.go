package forest

import (
	"testing"

	"nwforest/internal/gen"
	"nwforest/internal/graph"
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

// BenchmarkPathQuery times the C(e, c) probes of Algorithm 1 (every edge
// against every other color) on two colorings: a 3-forest union, where
// every probe finds a path (found-heavy), and a greedy 4-coloring of a
// 96x96 road network, whose sparse upper classes make most probes
// not-found.
func BenchmarkPathQuery(b *testing.B) {
	union := gen.ForestUnion(2000, 3, 1)
	road := gen.RoadNetwork(96, 96, 1)
	for _, bc := range []struct {
		name   string
		g      *graph.Graph
		colors []int32
		k      int
	}{
		{"found-heavy", union, unionColors(union), 3},
		{"not-found-heavy", road, greedyForestColors(road, 4), 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := FromColors(bc.g, bc.colors)
			sc := NewScratch(bc.g.N())
			qs := edgeProbes(bc.g, bc.colors, bc.k)
			found := 0
			for _, q := range qs {
				if s.ConnectedInColorWith(sc, q.c, q.u, q.v, nil) {
					found++
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				pathSink = s.PathInColorWith(sc, q.c, q.u, q.v, nil)
			}
			b.ReportMetric(float64(found)/float64(len(qs)), "found/query")
		})
	}
}
