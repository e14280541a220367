// Package graph implements the static multigraph substrate used by the
// whole module.
//
// Vertices are dense integers 0..N-1. Edges are identified by dense integer
// IDs 0..M-1 (their index in the edge list), which lets algorithm state —
// colorings, orientations, palettes — live in flat slices indexed by edge
// ID. Parallel edges are allowed (the paper's results hold for
// multigraphs); self-loops are not, since no forest can contain one.
package graph

import (
	"errors"
	"fmt"
)

// Edge is an undirected edge between U and V.
type Edge struct {
	U, V int32
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v int32) int32 {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
	}
}

// Arc is one direction of an undirected edge, as stored in adjacency lists:
// the edge with ID Edge leads to neighbor To.
type Arc struct {
	Edge int32 // edge ID
	To   int32 // neighbor vertex
}

// Graph is an immutable undirected multigraph.
//
// Adjacency is stored in CSR (compressed sparse row) form: all 2M arcs
// live in one contiguous slice, grouped by source vertex, with
// offsets[v]..offsets[v+1] delimiting the arcs of v. Every Adj call is a
// subslice view into that array — no per-vertex slice headers, no
// pointer chasing between vertices — so whole-graph scans stream through
// the cache and large graphs cost exactly two allocations of adjacency.
type Graph struct {
	n       int
	edges   []Edge
	arcs    []Arc   // len 2M, grouped by vertex, edge-ID order within a vertex
	offsets []int32 // len n+1; arcs of v are arcs[offsets[v]:offsets[v+1]]
}

// ErrSelfLoop is returned by New when the edge list contains a self-loop.
var ErrSelfLoop = errors.New("graph: self-loops are not allowed")

// New builds a graph on n vertices from the given edge list. The edge IDs
// are the indices into edges. It returns an error if any edge mentions a
// vertex outside [0, n) or is a self-loop.
func New(n int, edges []Edge) (*Graph, error) {
	g := &Graph{
		n:       n,
		edges:   make([]Edge, len(edges)),
		arcs:    make([]Arc, 2*len(edges)),
		offsets: make([]int32, n+1),
	}
	copy(g.edges, edges)
	for _, e := range g.edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge %v out of range for n=%d", e, n)
		}
		if e.U == e.V {
			return nil, ErrSelfLoop
		}
		g.offsets[e.U+1]++
		g.offsets[e.V+1]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	// Counting-sort fill: cursor[v] is the next free slot of v. Iterating
	// edges in ID order reproduces the append order of the old
	// slice-of-slices layout, so port numbering is unchanged.
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	for id, e := range g.edges {
		g.arcs[cursor[e.U]] = Arc{Edge: int32(id), To: e.V}
		cursor[e.U]++
		g.arcs[cursor[e.V]] = Arc{Edge: int32(id), To: e.U}
		cursor[e.V]++
	}
	return g, nil
}

// MustNew is New but panics on error; for tests and generators whose inputs
// are correct by construction.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edge returns the endpoints of edge id.
func (g *Graph) Edge(id int32) Edge { return g.edges[id] }

// Edges returns the underlying edge slice. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Adj returns the adjacency list of v: a view into the shared CSR arc
// array. Callers must not modify it.
func (g *Graph) Adj(v int32) []Arc { return g.arcs[g.offsets[v]:g.offsets[v+1]] }

// Degree returns the degree of v (counting parallel edges).
func (g *Graph) Degree(v int32) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Offsets returns the CSR offset array: len N+1, with the arcs of v
// occupying Arcs()[Offsets()[v]:Offsets()[v+1]]. Offsets()[N] == 2*M.
// Callers must not modify it. Consumers that index per-port state (the
// H-partition peel, flat per-vertex scratch) can share this array
// instead of rebuilding their own prefix sums.
func (g *Graph) Offsets() []int32 { return g.offsets }

// Arcs returns the flat CSR arc array, grouped by source vertex in
// adjacency order. Callers must not modify it.
func (g *Graph) Arcs() []Arc { return g.arcs }

// Footprint returns the approximate heap bytes held by the graph's edge
// list and CSR adjacency, for cache accounting.
func (g *Graph) Footprint() int64 {
	return int64(len(g.edges))*8 + int64(len(g.arcs))*8 + int64(len(g.offsets))*4
}

// GroupEdges buckets every edge ID by the vertex key(id) returns (which
// must be in [0, N)), as per-vertex views into one flat CSR-style
// backing array: a handful of allocations total regardless of N, with
// edge-ID order preserved within each bucket. It is the shared kernel
// behind the per-vertex out-edge indexes (orientation tails,
// lower-endpoint orientations, ...).
func (g *Graph) GroupEdges(key func(id int32) int32) [][]int32 {
	n := g.n
	m := len(g.edges)
	off := make([]int32, n+1)
	for id := 0; id < m; id++ {
		off[key(int32(id))+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	flat := make([]int32, m)
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	for id := 0; id < m; id++ {
		k := key(int32(id))
		flat[cursor[k]] = int32(id)
		cursor[k]++
	}
	out := make([][]int32, n)
	for v := 0; v < n; v++ {
		out[v] = flat[off[v]:off[v+1]:off[v+1]]
	}
	return out
}

// MaxDegree returns the maximum degree Δ of the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := int(g.offsets[v+1] - g.offsets[v]); d > max {
			max = d
		}
	}
	return max
}

// IsSimple reports whether the graph has no parallel edges.
func (g *Graph) IsSimple() bool {
	seen := make(map[[2]int32]struct{}, len(g.edges))
	for _, e := range g.edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		key := [2]int32{u, v}
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
	}
	return true
}

// Density returns |E| / (|V|-1), the Nash-Williams density of the whole
// graph (a lower bound on the fractional arboricity). Returns 0 when n < 2.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return float64(len(g.edges)) / float64(g.n-1)
}

// BFSScratch holds the reusable buffers of a breadth-first search. The
// zero value is ready to use; a scratch passed to repeated BFSWith calls
// (possibly over different graphs) amortizes the per-search allocations
// away. A scratch must not be shared between concurrent searches.
type BFSScratch struct {
	dist  []int32
	queue []int32
}

// BFS runs a breadth-first search from each source, visiting every vertex
// reachable within maxDist hops (maxDist < 0 means unbounded). It calls
// visit(v, dist) once per reached vertex, in nondecreasing order of dist.
// The sources themselves are visited at distance 0.
func (g *Graph) BFS(sources []int32, maxDist int, visit func(v int32, dist int)) {
	g.BFSWith(&BFSScratch{}, sources, maxDist, visit)
}

// BFSWith is BFS with caller-owned scratch buffers, for hot loops that
// search repeatedly and must not reallocate the frontier each time.
func (g *Graph) BFSWith(s *BFSScratch, sources []int32, maxDist int, visit func(v int32, dist int)) {
	if cap(s.dist) < g.n {
		s.dist = make([]int32, g.n)
	}
	dist := s.dist[:g.n]
	for i := range dist {
		dist[i] = -1
	}
	queue := s.queue[:0]
	for _, src := range sources {
		if dist[src] == -1 {
			dist[src] = 0
			queue = append(queue, src)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		visit(v, int(dist[v]))
		if maxDist >= 0 && int(dist[v]) >= maxDist {
			continue
		}
		for _, a := range g.Adj(v) {
			if dist[a.To] == -1 {
				dist[a.To] = dist[v] + 1
				queue = append(queue, a.To)
			}
		}
	}
	s.queue = queue
}

// BFSEpochScratch backs BFSEpochWith: an epoch-stamped seen array
// replaces BFSWith's O(n) distance reset, so a search costs only the
// vertices it reaches. Use it when one caller runs many small BFS over
// the same large graph (the per-cluster ball computations of Algorithm
// 2). A scratch must not be shared between concurrent searches.
type BFSEpochScratch struct {
	seen  []uint32
	dist  []int32
	queue []int32
	epoch uint32
}

// BFSEpochWith is BFSWith on epoch-stamped scratch: identical visit
// order and semantics, but per-call cost proportional to the reached
// set instead of the whole graph.
func (g *Graph) BFSEpochWith(s *BFSEpochScratch, sources []int32, maxDist int, visit func(v int32, dist int)) {
	if cap(s.seen) < g.n {
		s.seen = make([]uint32, g.n)
		s.dist = make([]int32, g.n)
	}
	seen, dist := s.seen[:g.n], s.dist[:g.n]
	s.epoch++
	if s.epoch == 0 { // wrapped: restamp so stale marks cannot collide
		clear(seen)
		s.epoch = 1
	}
	ep := s.epoch
	queue := s.queue[:0]
	for _, src := range sources {
		if seen[src] != ep {
			seen[src] = ep
			dist[src] = 0
			queue = append(queue, src)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		visit(v, int(dist[v]))
		if maxDist >= 0 && int(dist[v]) >= maxDist {
			continue
		}
		for _, a := range g.Adj(v) {
			if seen[a.To] != ep {
				seen[a.To] = ep
				dist[a.To] = dist[v] + 1
				queue = append(queue, a.To)
			}
		}
	}
	s.queue = queue
}

// Ball returns the set of vertices within distance r of any source,
// including the sources, as a sorted-by-discovery slice.
func (g *Graph) Ball(sources []int32, r int) []int32 {
	var out []int32
	g.BFS(sources, r, func(v int32, _ int) { out = append(out, v) })
	return out
}

// Dist returns the hop distance from u to v, or -1 if disconnected.
func (g *Graph) Dist(u, v int32) int {
	res := -1
	g.BFS([]int32{u}, -1, func(w int32, d int) {
		if w == v && res == -1 {
			res = d
		}
	})
	return res
}

// Components returns a component label per vertex and the component
// count. One epoch-stamped scratch serves every component's search, so
// the cost is O(n + m) however many components (isolated vertices
// included) there are.
func (g *Graph) Components() (label []int32, count int) {
	label = make([]int32, g.n)
	for i := range label {
		label[i] = -1
	}
	var s BFSEpochScratch
	for v := int32(0); int(v) < g.n; v++ {
		if label[v] != -1 {
			continue
		}
		c := int32(count)
		count++
		g.BFSEpochWith(&s, []int32{v}, -1, func(w int32, _ int) { label[w] = c })
	}
	return label, count
}

// IsForest reports whether the whole graph is acyclic.
func (g *Graph) IsForest() bool {
	_, comps := g.Components()
	return len(g.edges) == g.n-comps
}

// EdgesWithin returns the IDs of edges whose both endpoints satisfy in().
func (g *Graph) EdgesWithin(in func(v int32) bool) []int32 {
	var out []int32
	for id, e := range g.edges {
		if in(e.U) && in(e.V) {
			out = append(out, int32(id))
		}
	}
	return out
}

// InducedSubgraph returns the subgraph induced by the given vertex set,
// together with mapping slices: vmap[newV] = oldV and emap[newE] = oldE.
func (g *Graph) InducedSubgraph(vs []int32) (sub *Graph, vmap, emap []int32) {
	idx := make(map[int32]int32, len(vs))
	vmap = make([]int32, len(vs))
	for i, v := range vs {
		idx[v] = int32(i)
		vmap[i] = v
	}
	var edges []Edge
	for id, e := range g.edges {
		iu, okU := idx[e.U]
		iv, okV := idx[e.V]
		if okU && okV {
			edges = append(edges, Edge{U: iu, V: iv})
			emap = append(emap, int32(id))
		}
	}
	sub = MustNew(len(vs), edges)
	return sub, vmap, emap
}

// SubgraphOfEdges returns the graph on the same vertex set containing only
// the listed edges, with emap[newE] = oldE.
func (g *Graph) SubgraphOfEdges(edgeIDs []int32) (sub *Graph, emap []int32) {
	edges := make([]Edge, len(edgeIDs))
	emap = make([]int32, len(edgeIDs))
	for i, id := range edgeIDs {
		edges[i] = g.edges[id]
		emap[i] = id
	}
	return MustNew(g.n, edges), emap
}

// E is a convenience constructor for Edge, useful in tests and generators.
func E(u, v int32) Edge { return Edge{U: u, V: v} }
