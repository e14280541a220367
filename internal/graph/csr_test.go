package graph_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nwforest/internal/graph"
)

// refAdjacency builds the adjacency the pre-CSR layout produced: one
// slice per vertex, arcs appended in edge-ID order. The CSR layout must
// reproduce it exactly — same arcs, same port order — because the
// peel's port numbering and every recorded round/traffic count depend on
// it.
func refAdjacency(n int, edges []graph.Edge) [][]graph.Arc {
	adj := make([][]graph.Arc, n)
	for id, e := range edges {
		adj[e.U] = append(adj[e.U], graph.Arc{Edge: int32(id), To: e.V})
		adj[e.V] = append(adj[e.V], graph.Arc{Edge: int32(id), To: e.U})
	}
	return adj
}

// checkAgainstReference builds the graph through New and through the
// decoders' constructor, which must keep a slice whose capacity equals
// its length and copy any other, and holds both CSRs to the reference.
// New must copy its input: scribbling over edges afterwards must not
// reach the graph.
func checkAgainstReference(t *testing.T, n int, edges []graph.Edge) {
	t.Helper()
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatalf("New(%d, %v): %v", n, edges, err)
	}
	want := slices.Clone(edges)
	for i, e := range edges {
		edges[i] = graph.E(e.V, e.U)
	}
	checkCSR(t, g, n, want)
	copy(edges, want)
	for _, spare := range []int{0, 3} {
		own := make([]graph.Edge, len(edges), len(edges)+spare)
		copy(own, edges)
		g, err := graph.NewOwned(n, own)
		if err != nil {
			t.Fatalf("NewOwned(%d, %v): %v", n, edges, err)
		}
		if cap(g.Edges()) != len(edges) {
			t.Fatalf("NewOwned with %d spare capacity kept cap %d for %d edges", spare, cap(g.Edges()), len(edges))
		}
		if spare == 0 && len(own) > 0 && &g.Edges()[0] != &own[0] {
			t.Fatal("NewOwned copied a slice with no spare capacity")
		}
		checkCSR(t, g, n, edges)
	}
}

// checkCSR compares g's CSR with the reference layout of (n, edges).
func checkCSR(t *testing.T, g *graph.Graph, n int, edges []graph.Edge) {
	t.Helper()
	if !slices.Equal(g.Edges(), edges) {
		t.Fatalf("graph holds edges %v, want %v", g.Edges(), edges)
	}
	ref := refAdjacency(n, edges)
	off := g.Offsets()
	if len(off) != n+1 || off[0] != 0 || int(off[n]) != 2*len(edges) {
		t.Fatalf("offsets invariant broken: len=%d first=%d last=%d want (%d, 0, %d)",
			len(off), off[0], off[n], n+1, 2*len(edges))
	}
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			t.Fatalf("offsets not monotone at %d: %d > %d", v, off[v], off[v+1])
		}
		got := g.Adj(int32(v))
		if len(got) != len(ref[v]) || g.Degree(int32(v)) != len(ref[v]) {
			t.Fatalf("vertex %d: %d arcs (Degree %d), reference has %d",
				v, len(got), g.Degree(int32(v)), len(ref[v]))
		}
		for p := range got {
			if got[p] != ref[v][p] {
				t.Fatalf("vertex %d port %d: %+v, reference %+v", v, p, got[p], ref[v][p])
			}
		}
	}
	if len(g.Arcs()) != 2*len(edges) {
		t.Fatalf("Arcs() has %d entries, want %d", len(g.Arcs()), 2*len(edges))
	}
}

func TestCSRIsolatedVertices(t *testing.T) {
	// Vertices 0, 3 and 6 have degree 0; in CSR they are empty windows
	// between equal offsets, which is where off-by-one bugs live.
	edges := []graph.Edge{graph.E(1, 2), graph.E(4, 5), graph.E(2, 4)}
	checkAgainstReference(t, 7, edges)
	g := graph.MustNew(7, edges)
	for _, v := range []int32{0, 3, 6} {
		if d := g.Degree(v); d != 0 {
			t.Fatalf("isolated vertex %d has degree %d", v, d)
		}
		if a := g.Adj(v); len(a) != 0 {
			t.Fatalf("isolated vertex %d has arcs %v", v, a)
		}
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

func TestCSRVertexZeroDegreeZero(t *testing.T) {
	edges := []graph.Edge{graph.E(1, 2), graph.E(2, 3)}
	checkAgainstReference(t, 4, edges)
	g := graph.MustNew(4, edges)
	if d := g.Degree(0); d != 0 {
		t.Fatalf("vertex 0 degree = %d, want 0", d)
	}
	if off := g.Offsets(); off[0] != 0 || off[1] != 0 {
		t.Fatalf("offsets[0:2] = %v, want [0 0]", off[:2])
	}
}

func TestCSRParallelEdges(t *testing.T) {
	// A triple edge plus a distinct pair: ports must stay in edge-ID
	// order, and each parallel edge keeps its own port at both ends.
	edges := []graph.Edge{
		graph.E(0, 1),
		graph.E(1, 2),
		graph.E(0, 1),
		graph.E(0, 1),
	}
	checkAgainstReference(t, 3, edges)
	g := graph.MustNew(3, edges)
	want := []graph.Arc{{Edge: 0, To: 1}, {Edge: 2, To: 1}, {Edge: 3, To: 1}}
	if got := g.Adj(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("Adj(0) = %v, want %v", got, want)
	}
}

func TestCSREmptyAndEdgeless(t *testing.T) {
	checkAgainstReference(t, 0, nil)
	checkAgainstReference(t, 5, nil)
	g := graph.MustNew(5, nil)
	if g.MaxDegree() != 0 {
		t.Fatalf("MaxDegree of edgeless graph = %d", g.MaxDegree())
	}
}

// TestCSRMatchesReferenceOnRandomMultigraphs property-checks the CSR
// layout against the slice-of-slices reference on random multigraphs
// with parallel edges, skewed degrees and isolated vertices.
func TestCSRMatchesReferenceOnRandomMultigraphs(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		if n < 2 {
			checkAgainstReference(t, n, nil)
			continue
		}
		m := r.Intn(120)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			u := int32(r.Intn(n))
			v := int32(r.Intn(n))
			if u == v {
				continue // self-loops are rejected by New; not under test here
			}
			if r.Intn(4) == 0 && len(edges) > 0 {
				edges = append(edges, edges[r.Intn(len(edges))]) // force parallels
			} else {
				edges = append(edges, graph.E(u, v))
			}
		}
		checkAgainstReference(t, n, edges)
	}
}

// FuzzCSRAdjacency fuzzes graph construction: arbitrary bytes decode
// into an (n, edge list) pair, and the CSR adjacency, built through New
// and through the decoders' constructor, must match the reference layout
// for every decodable input.
func FuzzCSRAdjacency(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 0, 1, 2, 3})
	f.Add([]byte{2, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%32) + 1
		var edges []graph.Edge
		for i := 1; i+1 < len(data); i += 2 {
			u := int32(int(data[i]) % n)
			v := int32(int(data[i+1]) % n)
			if u == v {
				continue
			}
			edges = append(edges, graph.E(u, v))
		}
		checkAgainstReference(t, n, edges)
	})
}
