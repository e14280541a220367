package forest

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"nwforest/internal/graph"
	"nwforest/internal/rng"
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
