package forest

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"nwforest/internal/graph"
	"nwforest/internal/rng"
	"nwforest/internal/unionfind"
	"nwforest/internal/verify"
)

// randomGraph builds a small multigraph deterministically.
func randomGraph(n, m int, seed uint64) *graph.Graph {
	src := rng.New(seed)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u := int32(src.Intn(n))
		v := int32(src.Intn(n))
		if u != v {
			edges = append(edges, graph.E(u, v))
		}
	}
	return graph.MustNew(n, edges)
}

// randomOp draws one pseudo-random SetColor over m edges and k colors;
// one draw in k+1 erases the edge's color.
func randomOp(src *rng.Source, m, k int) (id, c int32) {
	id = int32(src.Intn(m))
	c = int32(src.Intn(k + 1))
	if int(c) == k {
		c = verify.Uncolored
	}
	return id, c
}

// incidenceModel is the reference for State's incidence order contract:
// edge lists keyed by (vertex, color) that grow by append on color and
// shrink by swap-delete on erase.
type incidenceModel struct {
	g      *graph.Graph
	colors []int32
	lists  map[[2]int32][]int32
}

// newIncidenceModel returns the model of New(g) after an id-ascending
// SetColor loop over colors (nil: all uncolored), which is what
// FromColors must build.
func newIncidenceModel(g *graph.Graph, colors []int32) *incidenceModel {
	m := &incidenceModel{g: g, colors: make([]int32, g.M()), lists: map[[2]int32][]int32{}}
	for id := range m.colors {
		m.colors[id] = verify.Uncolored
	}
	for id, c := range colors {
		m.setColor(int32(id), c)
	}
	return m
}

func (m *incidenceModel) setColor(id, c int32) {
	old := m.colors[id]
	if old == c {
		return
	}
	e := m.g.Edge(id)
	m.colors[id] = c
	for _, v := range [2]int32{e.U, e.V} {
		if old != verify.Uncolored {
			key := [2]int32{v, old}
			ids := m.lists[key]
			i := slices.Index(ids, id)
			ids[i] = ids[len(ids)-1]
			if ids = ids[:len(ids)-1]; len(ids) == 0 {
				delete(m.lists, key)
			} else {
				m.lists[key] = ids
			}
		}
		if c != verify.Uncolored {
			key := [2]int32{v, c}
			m.lists[key] = append(m.lists[key], id)
		}
	}
}

// requireMatchesModel compares s with m: the coloring, the exact order
// of every (vertex, color) edge list, the in-color degrees, and the set
// of colors at each vertex.
func requireMatchesModel(t *testing.T, label string, s *State, m *incidenceModel, k int) {
	t.Helper()
	if !slices.Equal(s.Colors(), m.colors) {
		t.Fatalf("%s: Colors diverged from the model", label)
	}
	for v := int32(0); int(v) < s.Graph().N(); v++ {
		var want []int32
		for c := int32(0); c < int32(k); c++ {
			ids := m.lists[[2]int32{v, c}]
			// Order must match exactly: traversal order feeds the
			// augmenting search, so it is contractual.
			if got := s.IncidentInColor(v, c); !slices.Equal(got, ids) {
				t.Fatalf("%s: IncidentInColor(%d, %d) = %v, model %v", label, v, c, got, ids)
			}
			if got := s.DegreeInColor(v, c); got != len(ids) {
				t.Fatalf("%s: DegreeInColor(%d, %d) = %d, model %d", label, v, c, got, len(ids))
			}
			if len(ids) > 0 {
				want = append(want, c)
			}
		}
		got := s.ColorsAt(v)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ColorsAt(%d) = %v as a set, model %v", label, v, got, want)
		}
	}
}

// TestRepEquivalenceRandomOps holds State to the incidence model, the
// reference representation, over a random SetColor sequence, and at
// each checkpoint holds FromColors of the current coloring to the model
// built by an id-ascending SetColor loop.
func TestRepEquivalenceRandomOps(t *testing.T) {
	const k = 5
	g := randomGraph(60, 180, 11)
	s, m := New(g), newIncidenceModel(g, nil)
	src := rng.New(99)
	for step := 0; step < 400; step++ {
		id, c := randomOp(src, g.M(), k)
		s.SetColor(id, c)
		m.setColor(id, c)
		if step%20 != 19 {
			continue
		}
		requireMatchesModel(t, fmt.Sprintf("SetColor, step %d", step), s, m, k)
		colors := s.Colors()
		requireMatchesModel(t, fmt.Sprintf("FromColors, step %d", step), FromColors(g, colors), newIncidenceModel(g, colors), k)
	}
}

// TestFromColorsBulkMatchesIncremental holds FromColors of a random
// coloring, and the State an id-ascending SetColor loop builds from it,
// to the model of that loop.
func TestFromColorsBulkMatchesIncremental(t *testing.T) {
	const k = 6
	g := randomGraph(80, 240, 21)
	src := rng.New(31)
	colors := make([]int32, g.M())
	for i := range colors {
		colors[i] = int32(src.Intn(k+1)) - 1 // -1 == verify.Uncolored
	}
	m := newIncidenceModel(g, colors)
	requireMatchesModel(t, "FromColors", FromColors(g, colors), m, k)
	inc := New(g)
	for id, c := range colors {
		inc.SetColor(int32(id), c)
	}
	requireMatchesModel(t, "SetColor loop", inc, m, k)
}

// TestConcurrentReadersWithScratches drives the concurrency contract the
// parallel decomposition core relies on: read-only queries over one
// State from many goroutines, each with its own Scratch, agree with the
// sequential answers (the race detector checks safety).
func TestConcurrentReadersWithScratches(t *testing.T) {
	g := randomGraph(120, 360, 41)
	st := New(g)
	src := rng.New(77)
	for i := 0; i < 300; i++ {
		st.SetColor(randomOp(src, g.M(), 4))
	}
	type query struct{ c, u, v int32 }
	queries := make([]query, 200)
	want := make([][]int32, len(queries))
	for i := range queries {
		q := query{int32(src.Intn(4)), int32(src.Intn(g.N())), int32(src.Intn(g.N()))}
		queries[i] = q
		want[i] = st.PathInColor(q.c, q.u, q.v, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := NewScratch(g.N())
			for i := w; i < len(queries); i += 4 {
				q := queries[i]
				got := st.PathInColorWith(sc, q.c, q.u, q.v, nil)
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("query %d diverged under concurrency", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// requireRooted checks the rooted-forest invariants of s: every slot's
// parent edge is a c-edge at its vertex and no parent chain cycles;
// every colored edge is parked or exactly one endpoint's parent edge,
// and a parked edge's endpoints share a root. It returns, per color in
// [0, k), whether the class is a forest, which must hold exactly when
// none of its edges is parked.
func requireRooted(t *testing.T, label string, s *State, k int) []bool {
	t.Helper()
	g := s.Graph()
	parked := map[int32]bool{}
	for _, id := range s.parked {
		if s.colors[id] == verify.Uncolored || parked[id] {
			t.Fatalf("%s: parked list %v holds edge %d twice or uncolored", label, s.parked, id)
		}
		parked[id] = true
	}
	children := make([]int, g.M())
	for v := range s.adj {
		for _, sl := range s.adj[v] {
			if sl.parent == -1 {
				continue
			}
			if sl.parent < 0 || s.colors[sl.parent] != sl.c || !slices.Contains(sl.ids, sl.parent) {
				t.Fatalf("%s: vertex %d's parent edge %d in color %d is not a c-edge at it", label, v, sl.parent, sl.c)
			}
			children[sl.parent]++
		}
	}
	root := func(v, c int32) int32 {
		for steps := 0; ; steps++ {
			p := s.parent(v, c)
			if p < 0 {
				return v
			}
			if steps > g.N() {
				t.Fatalf("%s: the color-%d parent chain from %d cycles", label, c, v)
			}
			v = g.Edge(p).Other(v)
		}
	}
	forest := make([]bool, k)
	classes := make([]*unionfind.DSU, k)
	for c := range classes {
		forest[c] = true
		classes[c] = unionfind.New(g.N())
	}
	for id, c := range s.colors {
		if c == verify.Uncolored {
			if children[id] != 0 {
				t.Fatalf("%s: uncolored edge %d is a parent edge", label, id)
			}
			continue
		}
		e := g.Edge(int32(id))
		if !classes[c].Union(int(e.U), int(e.V)) {
			forest[c] = false
		}
		switch {
		case parked[int32(id)] && children[id] != 0:
			t.Fatalf("%s: parked edge %d is also a parent edge", label, id)
		case parked[int32(id)] && root(e.U, c) != root(e.V, c):
			t.Fatalf("%s: parked color-%d edge %d joins two trees", label, c, id)
		case !parked[int32(id)] && children[id] != 1:
			t.Fatalf("%s: color-%d edge %d is the parent edge of %d endpoints", label, c, id, children[id])
		}
	}
	for id := range parked {
		if c := s.colors[id]; forest[c] {
			t.Fatalf("%s: color %d is a forest but edge %d is parked", label, c, id)
		}
	}
	for c := range forest {
		if forest[c] {
			continue
		}
		if !slices.ContainsFunc(s.parked, func(id int32) bool { return s.colors[id] == int32(c) }) {
			t.Fatalf("%s: color %d has a cycle but no parked edge", label, c)
		}
	}
	return forest
}

// TestRootedForestModel runs random SetColors (cycle-closing ones
// included), Recolor batches and FromColors rebuilds on a multigraph,
// and after every step holds the incidence index to the model, checks
// the rooted-forest invariants, and holds the path queries of every
// forest class to the one-sided BFS, with and without a region.
func TestRootedForestModel(t *testing.T) {
	const k = 4
	for seed := uint64(1); seed <= 3; seed++ {
		g := withParallels(randomGraph(40, 70, seed))
		src := rng.New(seed + 100)
		s, m := New(g), newIncidenceModel(g, nil)
		sc := NewScratch(g.N())
		for step := 0; step < 400; step++ {
			var label string
			switch r := src.Intn(10); {
			case r < 6:
				id, c := randomOp(src, g.M(), k)
				s.SetColor(id, c)
				m.setColor(id, c)
				label = fmt.Sprintf("seed %d, step %d: SetColor(%d, %d)", seed, step, id, c)
			case r < 9:
				steps := make([]Step, 1+src.Intn(6))
				for i := range steps {
					steps[i].Edge, steps[i].Color = randomOp(src, g.M(), k)
					m.setColor(steps[i].Edge, steps[i].Color)
				}
				s.Recolor(steps)
				label = fmt.Sprintf("seed %d, step %d: Recolor(%v)", seed, step, steps)
			default:
				// FromColors builds the order of an id-ascending SetColor
				// loop, so the model restarts from that loop too.
				s = FromColors(g, s.Colors())
				m = newIncidenceModel(g, s.Colors())
				label = fmt.Sprintf("seed %d, step %d: FromColors", seed, step)
			}
			requireMatchesModel(t, label, s, m, k)
			forest := requireRooted(t, label, s, k)
			within := randomRegion(g.N(), 0.7, src)
			for q := 0; q < 8; q++ {
				c := int32(src.Intn(k))
				if !forest[c] {
					continue
				}
				u, v := int32(src.Intn(g.N())), int32(src.Intn(g.N()))
				checkQuery(t, s, sc, c, u, v, nil)
				checkQuery(t, s, sc, c, u, v, within)
			}
		}
	}
}

// TestRecolorForestSwaps applies random two-edge swaps that keep every
// class a forest but whose SetColor loop closes a cycle transiently, and
// requires Recolor to leave the rooted-forest invariants intact and
// nothing parked. (A SetColor loop ends in the same state, because the
// second step's cut relinks the edge the first step parked; the
// cuts-first order shows only in the work done.)
func TestRecolorForestSwaps(t *testing.T) {
	const k = 3
	g := withParallels(randomGraph(50, 150, 7))
	src := rng.New(8)
	s := FromColors(g, randomForestColors(g, k, src))
	applied := 0
	for batch := 0; batch < 400; batch++ {
		// Edge a moves from ca to cb, closing a cb-cycle through b, and
		// b moves to ca, which a's departure keeps acyclic exactly when
		// a lies on the ca-path between b's endpoints.
		a := int32(src.Intn(g.M()))
		ca, cb := s.Color(a), int32(src.Intn(k))
		if ca == verify.Uncolored || cb == ca {
			continue
		}
		e := g.Edge(a)
		path := oraclePath(s, cb, e.U, e.V, nil)
		if len(path) == 0 {
			continue
		}
		b := path[src.Intn(len(path))]
		eb := g.Edge(b)
		if p := oraclePath(s, ca, eb.U, eb.V, nil); p != nil && !slices.Contains(p, a) {
			continue
		}
		s.Recolor([]Step{{Edge: a, Color: cb}, {Edge: b, Color: ca}})
		applied++
		label := fmt.Sprintf("batch %d", batch)
		for c, ok := range requireRooted(t, label, s, k) {
			if !ok {
				t.Fatalf("%s: the swap left a cycle in color %d", label, c)
			}
		}
		if len(s.parked) != 0 {
			t.Fatalf("%s: Recolor parked %v", label, s.parked)
		}
	}
	if applied < 50 {
		t.Fatalf("only %d swaps applied", applied)
	}
}
