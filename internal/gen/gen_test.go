package gen

import (
	"testing"

	"nwforest/internal/graph"
	"nwforest/internal/unionfind"
)

func TestForestUnionShape(t *testing.T) {
	g := ForestUnion(50, 3, 1)
	if g.N() != 50 {
		t.Fatalf("n = %d, want 50", g.N())
	}
	if g.M() != 3*49 {
		t.Fatalf("m = %d, want %d", g.M(), 3*49)
	}
	if g.Density() != 3 {
		t.Fatalf("density = %v, want 3", g.Density())
	}
}

func TestForestUnionDeterministic(t *testing.T) {
	a := ForestUnion(30, 2, 9)
	b := ForestUnion(30, 2, 9)
	for id := range a.Edges() {
		if a.Edge(int32(id)) != b.Edge(int32(id)) {
			t.Fatal("same seed produced different graphs")
		}
	}
	c := ForestUnion(30, 2, 10)
	same := true
	for id := range a.Edges() {
		if a.Edge(int32(id)) != c.Edge(int32(id)) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestForestUnionTrees(t *testing.T) {
	// Each chunk of n-1 consecutive edges must form a spanning tree.
	n, k := 40, 4
	g := ForestUnion(n, k, 5)
	for tree := 0; tree < k; tree++ {
		dsu := unionfind.New(n)
		for i := 0; i < n-1; i++ {
			e := g.Edge(int32(tree*(n-1) + i))
			if !dsu.Union(int(e.U), int(e.V)) {
				t.Fatalf("tree %d contains a cycle", tree)
			}
		}
		if dsu.Count() != 1 {
			t.Fatalf("tree %d is not spanning (%d components)", tree, dsu.Count())
		}
	}
}

func TestSimpleForestUnionIsSimple(t *testing.T) {
	g := SimpleForestUnion(60, 5, 2)
	if !g.IsSimple() {
		t.Fatal("SimpleForestUnion produced parallel edges")
	}
	if g.M() != 5*59 {
		t.Fatalf("m = %d, want %d", g.M(), 5*59)
	}
}

func TestSimpleForestUnionPanicsWhenTooDense(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > (n-1)/2")
		}
	}()
	SimpleForestUnion(5, 3, 1)
}

func TestRandomTreeIsTree(t *testing.T) {
	g := RandomTree(100, 3)
	if !g.IsForest() {
		t.Fatal("RandomTree produced a cycle")
	}
	if _, comps := g.Components(); comps != 1 {
		t.Fatalf("RandomTree has %d components", comps)
	}
}

func TestLineMultigraph(t *testing.T) {
	g := LineMultigraph(6, 3)
	if g.N() != 6 || g.M() != 15 {
		t.Fatalf("line multigraph n=%d m=%d, want 6, 15", g.N(), g.M())
	}
	if g.MaxDegree() != 6 {
		t.Fatalf("max degree = %d, want 6", g.MaxDegree())
	}
	if g.IsSimple() {
		t.Fatal("line multigraph reported simple")
	}
}

func TestClique(t *testing.T) {
	g := Clique(6)
	if g.M() != 15 {
		t.Fatalf("K6 has %d edges, want 15", g.M())
	}
	if g.MaxDegree() != 5 {
		t.Fatalf("K6 max degree = %d", g.MaxDegree())
	}
	if !g.IsSimple() {
		t.Fatal("clique not simple")
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K34 n=%d m=%d", g.N(), g.M())
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 3)
	if g.N() != 12 {
		t.Fatalf("grid n = %d", g.N())
	}
	// 3 rows * 3 horizontal + 4 cols * 2 vertical = 9 + 8 = 17.
	if g.M() != 17 {
		t.Fatalf("grid m = %d, want 17", g.M())
	}
}

func TestGnm(t *testing.T) {
	g := Gnm(20, 50, 4)
	if g.N() != 20 || g.M() != 50 {
		t.Fatalf("Gnm n=%d m=%d", g.N(), g.M())
	}
	if !g.IsSimple() {
		t.Fatal("Gnm produced parallel edges")
	}
}

func TestGnmPanicsWhenOverfull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gnm(4, 7, 1)
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(200, 3, 8)
	if g.N() != 200 {
		t.Fatalf("BA n = %d", g.N())
	}
	// Seed clique C(4,2)=6 edges + 196 arrivals * 3 edges.
	if g.M() != 6+196*3 {
		t.Fatalf("BA m = %d, want %d", g.M(), 6+196*3)
	}
	if !g.IsSimple() {
		t.Fatal("BA produced parallel edges")
	}
}

func TestBarabasiAlbertSmallN(t *testing.T) {
	g := BarabasiAlbert(3, 5, 1)
	if g.M() != 3 { // falls back to K3
		t.Fatalf("BA small-n m = %d, want 3", g.M())
	}
}

func TestRoadNetwork(t *testing.T) {
	g := RoadNetwork(40, 50, 7)
	if g.N() != 40*50 {
		t.Fatalf("road n = %d, want 2000", g.N())
	}
	// Full grid would have 39*50 + 40*49 = 3910 street segments; ~15% are
	// removed and ~2% of the 39*49 cells gain a diagonal. Allow wide slack
	// around the expectation (~3360) — the point is the shape, not the count.
	if g.M() < 3000 || g.M() > 3700 {
		t.Fatalf("road m = %d, outside the plausible range", g.M())
	}
	if g.MaxDegree() > 6 {
		t.Fatalf("road max degree = %d, want <= 6", g.MaxDegree())
	}
	a := RoadNetwork(10, 10, 3)
	b := RoadNetwork(10, 10, 3)
	if a.M() != b.M() {
		t.Fatal("same seed produced different road networks")
	}
	for id := range a.Edges() {
		if a.Edge(int32(id)) != b.Edge(int32(id)) {
			t.Fatal("same seed produced different road networks")
		}
	}
}

func TestMultiplyEdges(t *testing.T) {
	g := MultiplyEdges(Grid(3, 3), 4)
	if g.M() != 12*4 {
		t.Fatalf("multiplied m = %d, want 48", g.M())
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4 n=%d m=%d, want 16, 32", g.N(), g.M())
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Q4 degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestSmallN(t *testing.T) {
	for _, g := range []*graph.Graph{
		ForestUnion(0, 3, 1), ForestUnion(1, 3, 1), RandomTree(1, 1),
		Clique(1), Grid(1, 1), LineMultigraph(1, 2),
	} {
		if g.M() != 0 {
			t.Fatalf("degenerate graph has %d edges", g.M())
		}
	}
}
