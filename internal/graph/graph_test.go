package graph

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"nwforest/internal/rng"
)

func path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{U: int32(i), V: int32(i + 1)})
	}
	return MustNew(n, edges)
}

func TestNewRejectsSelfLoop(t *testing.T) {
	if _, err := New(2, []Edge{{U: 1, V: 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	if _, err := New(2, []Edge{{U: 0, V: 2}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := New(2, []Edge{{U: -1, V: 0}}); err == nil {
		t.Fatal("negative vertex accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := MustNew(0, nil)
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty graph basic accessors wrong")
	}
	if !g.IsForest() {
		t.Fatal("empty graph should be a forest")
	}
}

func TestAdjAndDegrees(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}, {1, 2}, {0, 1}}) // parallel edge 0-1
	if g.Degree(1) != 3 {
		t.Fatalf("Degree(1) = %d, want 3", g.Degree(1))
	}
	if g.Degree(2) != 1 {
		t.Fatalf("Degree(2) = %d, want 1", g.Degree(2))
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if g.IsSimple() {
		t.Fatal("graph with parallel edge reported simple")
	}
	// Every arc must be consistent with its edge record.
	for v := int32(0); int(v) < g.N(); v++ {
		for _, a := range g.Adj(v) {
			e := g.Edge(a.Edge)
			if e.Other(v) != a.To {
				t.Fatalf("arc %v at vertex %d inconsistent with edge %v", a, v, e)
			}
		}
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := path(6)
	got := map[int32]int{}
	g.BFS([]int32{0}, -1, func(v int32, d int) { got[v] = d })
	for v := int32(0); v < 6; v++ {
		if got[v] != int(v) {
			t.Fatalf("dist(0,%d) = %d, want %d", v, got[v], v)
		}
	}
}

func TestBFSMaxDist(t *testing.T) {
	g := path(10)
	var visited []int32
	g.BFS([]int32{0}, 3, func(v int32, _ int) { visited = append(visited, v) })
	if len(visited) != 4 {
		t.Fatalf("BFS with maxDist=3 visited %d vertices, want 4", len(visited))
	}
}

func TestBFSMultiSource(t *testing.T) {
	g := path(7)
	got := map[int32]int{}
	g.BFS([]int32{0, 6}, -1, func(v int32, d int) { got[v] = d })
	if got[3] != 3 {
		t.Fatalf("dist({0,6},3) = %d, want 3", got[3])
	}
	if got[5] != 1 {
		t.Fatalf("dist({0,6},5) = %d, want 1", got[5])
	}
}

func TestBall(t *testing.T) {
	g := path(10)
	b := g.Ball([]int32{5}, 2)
	if len(b) != 5 {
		t.Fatalf("Ball(5,2) has %d vertices, want 5", len(b))
	}
}

func TestDist(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1}, {1, 2}})
	if d := g.Dist(0, 2); d != 2 {
		t.Fatalf("Dist(0,2) = %d, want 2", d)
	}
	if d := g.Dist(0, 3); d != -1 {
		t.Fatalf("Dist(0,3) = %d, want -1 (disconnected)", d)
	}
	if d := g.Dist(1, 1); d != 0 {
		t.Fatalf("Dist(1,1) = %d, want 0", d)
	}
}

func TestComponents(t *testing.T) {
	g := MustNew(5, []Edge{{0, 1}, {2, 3}})
	label, count := g.Components()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if label[0] != label[1] || label[2] != label[3] || label[0] == label[2] || label[4] == label[0] {
		t.Fatalf("bad labels %v", label)
	}
}

// TestComponentsAllocationLinear: one search scratch serves every
// component, so isolated vertices do not each cost an n-sized array.
func TestComponentsAllocationLinear(t *testing.T) {
	const n = 20000
	g := MustNew(n, []Edge{{0, 1}, {2, 3}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, count := g.Components()
	runtime.ReadMemStats(&after)
	if count != n-2 {
		t.Fatalf("components = %d, want %d", count, n-2)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 64*n {
		t.Fatalf("Components allocated %d bytes for n=%d, want <= %d", b, n, 64*n)
	}
}

func TestIsForest(t *testing.T) {
	if !path(5).IsForest() {
		t.Fatal("path reported as non-forest")
	}
	tri := MustNew(3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	if tri.IsForest() {
		t.Fatal("triangle reported as forest")
	}
	multi := MustNew(2, []Edge{{0, 1}, {0, 1}})
	if multi.IsForest() {
		t.Fatal("doubled edge reported as forest")
	}
}

func TestDensity(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	if d := g.Density(); d != 1.5 {
		t.Fatalf("Density = %v, want 1.5", d)
	}
	if d := MustNew(1, nil).Density(); d != 0 {
		t.Fatalf("Density of single vertex = %v, want 0", d)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := MustNew(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	sub, vmap, emap := g.InducedSubgraph([]int32{1, 2, 3})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("induced subgraph has n=%d m=%d, want 3, 2", sub.N(), sub.M())
	}
	for newE, oldE := range emap {
		e := sub.Edge(int32(newE))
		old := g.Edge(oldE)
		u, v := vmap[e.U], vmap[e.V]
		if !(u == old.U && v == old.V || u == old.V && v == old.U) {
			t.Fatalf("edge mapping broken: new %v -> old %v", e, old)
		}
	}
}

func TestSubgraphOfEdges(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	sub, emap := g.SubgraphOfEdges([]int32{0, 2})
	if sub.N() != 4 || sub.M() != 2 {
		t.Fatalf("subgraph n=%d m=%d, want 4, 2", sub.N(), sub.M())
	}
	if emap[0] != 0 || emap[1] != 2 {
		t.Fatalf("emap = %v, want [0 2]", emap)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(30)
		m := r.Intn(60)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			u := int32(r.Intn(n))
			v := int32(r.Intn(n))
			if u == v {
				continue
			}
			edges = append(edges, Edge{U: u, V: v})
		}
		g := MustNew(n, edges)
		var buf bytes.Buffer
		if err := Encode(&buf, g); err != nil {
			return false
		}
		h, err := Decode(&buf)
		if err != nil {
			return false
		}
		if h.N() != g.N() || h.M() != g.M() {
			return false
		}
		for id := range g.Edges() {
			if g.Edge(int32(id)) != h.Edge(int32(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeComments(t *testing.T) {
	in := "# a comment\n3 2\n\n0 1\n# another\n1 2\n"
	g, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("decoded n=%d m=%d", g.N(), g.M())
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"",             // no header
		"3\n",          // short header
		"3 2\n0 1\n",   // missing edge
		"2 1\n0 2\n",   // out of range
		"2 1\nx y\n",   // non-numeric
		"2 1\n0 1 2\n", // too many fields
		"x 1\n0 1\n",   // bad n
		"2 x\n0 1\n",   // bad m
		"2 1\n1 1\n",   // self loop
	}
	for _, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", in)
		}
	}
}

func TestBFSVisitsEachVertexOnce(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(40)
		var edges []Edge
		for i := 0; i < 2*n; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				edges = append(edges, Edge{U: u, V: v})
			}
		}
		g := MustNew(n, edges)
		counts := make([]int, n)
		g.BFS([]int32{int32(r.Intn(n))}, -1, func(v int32, _ int) { counts[v]++ })
		for _, c := range counts {
			if c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBFSEpochMatchesBFSWith checks that one epoch-stamped scratch,
// reused across many searches (including epoch turnover), visits the
// same (vertex, dist) sequence as a fresh scratch, and that a visit
// returning false ends the search at that vertex.
func TestBFSEpochMatchesBFSWith(t *testing.T) {
	g := path(30)
	var reused BFSEpochScratch
	reused.epoch = ^uint32(0) - 20 // wraps mid-run
	type vd struct {
		v int32
		d int
	}
	for trial := 0; trial < 50; trial++ {
		src := []int32{int32(trial % 30), int32((7 * trial) % 30)}
		maxD := trial%7 - 1 // includes -1 (unbounded)
		var a, b []vd
		g.BFSEpochWith(&reused, src, maxD, func(v int32, d int) bool {
			a = append(a, vd{v, d})
			return true
		})
		g.BFSEpochWith(&BFSEpochScratch{}, src, maxD, func(v int32, d int) bool {
			b = append(b, vd{v, d})
			return true
		})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: reused scratch visits %v, fresh %v", trial, a, b)
		}
		// Stop at the k-th visit: the visits are exactly the first k.
		k := 1 + trial%len(b)
		var c []vd
		g.BFSEpochWith(&reused, src, maxD, func(v int32, d int) bool {
			c = append(c, vd{v, d})
			return len(c) < k
		})
		if !reflect.DeepEqual(c, b[:k]) {
			t.Fatalf("trial %d: stopping at visit %d visits %v, want %v", trial, k, c, b[:k])
		}
	}
}
