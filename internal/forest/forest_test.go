package forest

import (
	"testing"
	"testing/quick"

	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

func TestSetColorAndQueries(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 3)})
	s := New(g)
	if s.Color(0) != verify.Uncolored {
		t.Fatal("fresh state not uncolored")
	}
	s.SetColor(0, 5)
	s.SetColor(1, 5)
	s.SetColor(2, 7)
	if s.DegreeInColor(1, 5) != 2 {
		t.Fatalf("DegreeInColor(1,5) = %d, want 2", s.DegreeInColor(1, 5))
	}
	if s.DegreeInColor(2, 5) != 1 || s.DegreeInColor(2, 7) != 1 {
		t.Fatal("incidence wrong at vertex 2")
	}
	// Recolor edge 1 from 5 to 7.
	s.SetColor(1, 7)
	if s.DegreeInColor(1, 5) != 1 || s.DegreeInColor(1, 7) != 1 {
		t.Fatal("recolor did not update incidence")
	}
	// Erase edge 0.
	s.SetColor(0, verify.Uncolored)
	if s.DegreeInColor(0, 5) != 0 {
		t.Fatal("erase did not update incidence")
	}
}

func TestColorsSnapshotIsCopy(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{graph.E(0, 1)})
	s := New(g)
	snap := s.Colors()
	snap[0] = 3
	if s.Color(0) != verify.Uncolored {
		t.Fatal("Colors() exposed internal state")
	}
}

func TestPathInColor(t *testing.T) {
	// Path 0-1-2-3 all color 0, edge 3-4 color 1.
	g := graph.MustNew(5, []graph.Edge{
		graph.E(0, 1), graph.E(1, 2), graph.E(2, 3), graph.E(3, 4),
	})
	s, sc := FromColors(g, []int32{0, 0, 0, 1}), NewScratch(g.N())
	p := s.PathInColorWith(sc, 0, 0, 3, nil)
	if len(p) != 3 {
		t.Fatalf("path length = %d, want 3", len(p))
	}
	if s.PathInColorWith(sc, 0, 0, 4, nil) != nil {
		t.Fatal("found color-0 path into color-1 territory")
	}
	if s.PathInColorWith(sc, 1, 3, 4, nil) == nil {
		t.Fatal("missed color-1 path")
	}
	if !s.ConnectedInColorWith(sc, 0, 1, 3, nil) {
		t.Fatal("ConnectedInColor false for connected pair")
	}
}

func TestPathInColorWithin(t *testing.T) {
	// Path 0-1-2-3 color 0. Restricting the region to exclude vertex 1
	// must disconnect 0 from 3.
	g := graph.MustNew(4, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 3)})
	s, sc := FromColors(g, []int32{0, 0, 0}), NewScratch(g.N())
	within := func(v int32) bool { return v != 1 }
	if p := s.PathInColorWith(sc, 0, 0, 3, within); p != nil {
		t.Fatalf("path %v found through excluded vertex", p)
	}
	// Endpoints are always allowed even if within() would reject them.
	if p := s.PathInColorWith(sc, 0, 0, 1, func(v int32) bool { return false }); p == nil {
		t.Fatal("single-hop path rejected by region filter")
	}
}

func TestComponentInColor(t *testing.T) {
	g := graph.MustNew(5, []graph.Edge{
		graph.E(0, 1), graph.E(1, 2), graph.E(3, 4),
	})
	s, sc := FromColors(g, []int32{2, 2, 2}), NewScratch(g.N())
	comp := s.ComponentInColorWith(sc, 2, 0)
	if len(comp) != 3 {
		t.Fatalf("component size = %d, want 3", len(comp))
	}
	comp = s.ComponentInColorWith(sc, 2, 3)
	if len(comp) != 2 {
		t.Fatalf("component size = %d, want 2", len(comp))
	}
	if got := s.ComponentInColorWith(sc, 9, 0); len(got) != 1 {
		t.Fatalf("missing color component = %v, want singleton", got)
	}
}

func TestColorsAt(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{graph.E(0, 1), graph.E(0, 2)})
	s := FromColors(g, []int32{4, 9})
	cs := s.ColorsAt(0)
	if len(cs) != 2 {
		t.Fatalf("ColorsAt(0) = %v", cs)
	}
}

func TestRootedTreesInColor(t *testing.T) {
	// Star 0-{1,2,3} plus path 4-5, all color 0.
	g := graph.MustNew(6, []graph.Edge{
		graph.E(0, 1), graph.E(0, 2), graph.E(0, 3), graph.E(4, 5),
	})
	s, sc := FromColors(g, []int32{0, 0, 0, 0}), NewScratch(g.N())
	region := []int32{0, 1, 2, 3, 4, 5}
	trees := s.RootedTreesInColorWith(sc, 0, region)
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(trees))
	}
	for _, tr := range trees {
		if tr.Parent[0] != -1 || tr.Depth[0] != 0 {
			t.Fatal("root bookkeeping wrong")
		}
		for i := 1; i < len(tr.Verts); i++ {
			if tr.Parent[i] < 0 {
				t.Fatal("non-root without parent edge")
			}
			if tr.Depth[i] < 1 {
				t.Fatal("non-root with depth 0")
			}
		}
	}
}

func TestRootedTreesRegionRestriction(t *testing.T) {
	// Path 0-1-2-3 color 0; region excludes vertex 2 so the tree from 0
	// must stop at 1 and vertex 3 is unreachable.
	g := graph.MustNew(4, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 3)})
	s, sc := FromColors(g, []int32{0, 0, 0}), NewScratch(g.N())
	trees := s.RootedTreesInColorWith(sc, 0, []int32{0, 1, 3})
	sizes := map[int]bool{}
	for _, tr := range trees {
		sizes[len(tr.Verts)] = true
	}
	if !sizes[2] {
		t.Fatalf("expected a 2-vertex tree, got %v", trees)
	}
}

// TestIncidenceInvariant property-checks that after random recoloring the
// incidence index matches a recount from scratch.
func TestIncidenceInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := gen.Gnm(15, 30, seed)
		s := New(g)
		for step := 0; step < 200; step++ {
			id := int32(r.Intn(g.M()))
			c := int32(r.Intn(4)) - 1 // -1..2, -1 = uncolored
			s.SetColor(id, c)
		}
		// Recount.
		for v := int32(0); int(v) < g.N(); v++ {
			count := map[int32]int{}
			for _, a := range g.Adj(v) {
				if c := s.Color(a.Edge); c != verify.Uncolored {
					count[c]++
				}
			}
			for c, want := range count {
				if s.DegreeInColor(v, c) != want {
					return false
				}
			}
			for _, c := range s.ColorsAt(v) {
				if count[c] != s.DegreeInColor(v, c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPathMatchesSubgraphBFS property-checks PathInColor against a plain
// BFS over the color class subgraph.
func TestPathMatchesSubgraphBFS(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := gen.Gnm(12, 20, seed)
		colors := make([]int32, g.M())
		for i := range colors {
			colors[i] = int32(r.Intn(3)) - 1
		}
		// Force acyclicity per color to keep paths unique: drop edges that
		// close cycles.
		s, sc := New(g), NewScratch(g.N())
		for id, c := range colors {
			if c == verify.Uncolored {
				continue
			}
			e := g.Edge(int32(id))
			if !s.ConnectedInColorWith(sc, c, e.U, e.V, nil) {
				s.SetColor(int32(id), c)
			}
		}
		for trial := 0; trial < 20; trial++ {
			u := int32(r.Intn(g.N()))
			v := int32(r.Intn(g.N()))
			if u == v {
				continue
			}
			c := int32(r.Intn(3) - 1)
			if c == verify.Uncolored {
				continue
			}
			path := s.PathInColorWith(sc, c, u, v, nil)
			// Cross-check connectivity via the subgraph.
			var ids []int32
			for id := int32(0); int(id) < g.M(); id++ {
				if s.Color(id) == c {
					ids = append(ids, id)
				}
			}
			sub, _ := g.SubgraphOfEdges(ids)
			connected := sub.Dist(u, v) >= 0
			if (path != nil) != connected {
				return false
			}
			if path != nil {
				// The path must be a valid u-v walk of c-colored edges.
				if len(path) != sub.Dist(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
