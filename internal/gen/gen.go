// Package gen generates benchmark workloads: graph families whose
// arboricity is known analytically, so that experiments can report measured
// excess colors against the true Nash-Williams bound without running the
// (expensive) exact decomposition first.
//
// Every generator is deterministic given its seed; all randomness flows
// through internal/rng.
package gen

import (
	"fmt"

	"nwforest/internal/graph"
	"nwforest/internal/rng"
)

// ForestUnion returns the union of k uniformly random spanning trees on n
// vertices. Its arboricity is exactly k for n >= 2: it decomposes into k
// forests by construction, and the whole graph has Nash-Williams density
// k(n-1)/(n-1) = k. The result is a multigraph in general (two trees may
// share an edge); use SimpleForestUnion for a simple variant.
func ForestUnion(n, k int, seed uint64) *graph.Graph {
	if n < 2 {
		return graph.MustNew(n, nil)
	}
	r := rng.New(seed)
	edges := make([]graph.Edge, 0, k*(n-1))
	for t := 0; t < k; t++ {
		edges = append(edges, randomSpanningTree(n, r.Split(uint64(t)))...)
	}
	return graph.MustNew(n, edges)
}

// SimpleForestUnion is ForestUnion with duplicate edges resampled, so the
// result is simple. It keeps |E| = k(n-1), so the Nash-Williams density of
// the whole graph is exactly k and the arboricity is at least k; the
// resampled edges can concentrate locally, so the arboricity is k or k+1.
func SimpleForestUnion(n, k int, seed uint64) *graph.Graph {
	if n < 2 {
		return graph.MustNew(n, nil)
	}
	if k > (n-1)/2 {
		panic(fmt.Sprintf("gen: SimpleForestUnion needs k <= (n-1)/2, got n=%d k=%d", n, k))
	}
	r := rng.New(seed)
	seen := make(map[[2]int32]struct{}, k*(n-1))
	edges := make([]graph.Edge, 0, k*(n-1))
	add := func(u, v int32) bool {
		if u > v {
			u, v = v, u
		}
		key := [2]int32{u, v}
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	}
	for t := 0; t < k; t++ {
		tree := randomSpanningTree(n, r.Split(uint64(t)))
		for _, e := range tree {
			if add(e.U, e.V) {
				continue
			}
			// Resample until we find a fresh edge; keeps |E| = k(n-1) so the
			// density argument still pins the arboricity at k.
			for {
				u := int32(r.Intn(n))
				v := int32(r.Intn(n))
				if u != v && add(u, v) {
					break
				}
			}
		}
	}
	return graph.MustNew(n, edges)
}

// randomSpanningTree returns the edges of a random recursive tree on n
// vertices under a random vertex relabeling (each non-root attaches to a
// uniform earlier vertex).
func randomSpanningTree(n int, r *rng.Source) []graph.Edge {
	perm := r.Perm(n)
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		j := r.Intn(i)
		edges = append(edges, graph.Edge{U: int32(perm[i]), V: int32(perm[j])})
	}
	return edges
}

// RandomTree returns a uniform random recursive tree on n vertices
// (arboricity 1 for n >= 2).
func RandomTree(n int, seed uint64) *graph.Graph {
	if n < 2 {
		return graph.MustNew(n, nil)
	}
	return graph.MustNew(n, randomSpanningTree(n, rng.New(seed)))
}

// LineMultigraph returns the lower-bound instance of Proposition C.1: ell
// vertices on a line with k parallel edges between consecutive vertices.
// Its arboricity is exactly k and any k(1+eps)-forest-decomposition has a
// tree of diameter Omega(1/eps).
func LineMultigraph(ell, k int) *graph.Graph {
	edges := make([]graph.Edge, 0, (ell-1)*k)
	for i := 0; i < ell-1; i++ {
		for j := 0; j < k; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
		}
	}
	return graph.MustNew(ell, edges)
}

// Clique returns the complete graph K_n (arboricity ceil(n/2)).
func Clique(n int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
		}
	}
	return graph.MustNew(n, edges)
}

// CompleteBipartite returns K_{a,b} with parts {0..a-1} and {a..a+b-1}
// (arboricity ceil(ab / (a+b-1))).
func CompleteBipartite(a, b int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(a + v)})
		}
	}
	return graph.MustNew(a+b, edges)
}

// Grid returns the w x h grid graph (arboricity 2 for w,h >= 2).
func Grid(w, h int) *graph.Graph {
	at := func(x, y int) int32 { return int32(y*w + x) }
	var edges []graph.Edge
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, graph.Edge{U: at(x, y), V: at(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, graph.Edge{U: at(x, y), V: at(x, y+1)})
			}
		}
	}
	return graph.MustNew(w*h, edges)
}

// RoadNetwork returns a synthetic road network on a rows x cols lattice:
// the grid's streets with ~15% of segments removed (dead ends, rivers,
// parks) plus sparse diagonal avenues (~2% of cells). The result has the
// shape of real road graphs — near-planar, average degree < 4, diameter
// Theta(rows+cols) — so netdecomp at small radii produces MANY clusters
// per class, which is the workload the parallel cluster phase is built
// for. Arboricity is 2 or 3 (planar minus removals, plus rare diagonal
// crossings).
func RoadNetwork(rows, cols int, seed uint64) *graph.Graph {
	at := func(x, y int) int32 { return int32(y*cols + x) }
	r := rng.New(seed)
	edges := make([]graph.Edge, 0, 2*rows*cols)
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if x+1 < cols && !r.Bernoulli(0.15) {
				edges = append(edges, graph.Edge{U: at(x, y), V: at(x+1, y)})
			}
			if y+1 < rows && !r.Bernoulli(0.15) {
				edges = append(edges, graph.Edge{U: at(x, y), V: at(x, y+1)})
			}
		}
	}
	for y := 0; y+1 < rows; y++ {
		for x := 0; x+1 < cols; x++ {
			if r.Bernoulli(0.02) {
				if r.Intn(2) == 0 {
					edges = append(edges, graph.Edge{U: at(x, y), V: at(x+1, y+1)})
				} else {
					edges = append(edges, graph.Edge{U: at(x+1, y), V: at(x, y+1)})
				}
			}
		}
	}
	return graph.MustNew(rows*cols, edges)
}

// Gnm returns a uniform simple graph with n vertices and m distinct edges.
// It panics if m exceeds the number of vertex pairs.
func Gnm(n, m int, seed uint64) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("gen: Gnm with m=%d > %d", m, maxM))
	}
	r := rng.New(seed)
	seen := make(map[[2]int32]struct{}, m)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		key := [2]int32{a, b}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.MustNew(n, edges)
}

// BarabasiAlbert returns a preferential-attachment graph: vertices arrive
// one at a time and attach k edges to existing vertices chosen
// proportionally to degree. Degeneracy (hence arboricity) is at most k.
func BarabasiAlbert(n, k int, seed uint64) *graph.Graph {
	if n <= k {
		return Clique(n)
	}
	r := rng.New(seed)
	// targets holds one entry per edge endpoint, so uniform sampling from it
	// is degree-proportional sampling.
	targets := make([]int32, 0, 2*k*n)
	var edges []graph.Edge
	// Seed with a (k+1)-clique.
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
			targets = append(targets, int32(u), int32(v))
		}
	}
	for v := k + 1; v < n; v++ {
		chosen := make(map[int32]struct{}, k)
		// Keep insertion order: iterating the map would make the edge list
		// (and everything downstream) nondeterministic across runs.
		order := make([]int32, 0, k)
		for len(chosen) < k {
			u := targets[r.Intn(len(targets))]
			if _, dup := chosen[u]; dup {
				continue
			}
			chosen[u] = struct{}{}
			order = append(order, u)
		}
		for _, u := range order {
			edges = append(edges, graph.Edge{U: int32(v), V: u})
			targets = append(targets, int32(v), u)
		}
	}
	return graph.MustNew(n, edges)
}

// MultiplyEdges returns the multigraph obtained by replacing every edge of
// g with c parallel copies (arboricity scales by exactly c on graphs where
// the densest subgraph realizes the arboricity).
func MultiplyEdges(g *graph.Graph, c int) *graph.Graph {
	edges := make([]graph.Edge, 0, g.M()*c)
	for _, e := range g.Edges() {
		for i := 0; i < c; i++ {
			edges = append(edges, e)
		}
	}
	return graph.MustNew(g.N(), edges)
}

// Hypercube returns the dim-dimensional hypercube graph on 2^dim vertices
// (arboricity ceil((dim+1)/2) asymptotically; degeneracy dim).
func Hypercube(dim int) *graph.Graph {
	n := 1 << dim
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			u := v ^ (1 << b)
			if v < u {
				edges = append(edges, graph.Edge{U: int32(v), V: int32(u)})
			}
		}
	}
	return graph.MustNew(n, edges)
}
