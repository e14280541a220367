// Package exact implements the centralized exact algorithms the paper uses
// as its reference point: Gabow-Westermann-style matroid-union
// augmentation for partitioning a multigraph into k forests, and exact
// arboricity via search over k (Nash-Williams [NW64], Gabow-Westermann
// [GW92]).
//
// The augmentation search is the centralized ancestor of the paper's
// Section 3: to color one new edge we BFS over "recoloring moves"
// (edge x can take color i if the edge y blocking it on the i-colored path
// between x's endpoints is itself recolored), and apply the resulting
// shortest augmenting sequence. Lemma 3.1 of the paper is exactly the
// proof that applying such a sequence keeps every color class a forest.
package exact

import (
	"context"
	"fmt"

	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// forests maintains the k color classes as adjacency structures supporting
// path queries and single-edge recoloring.
type forests struct {
	g      *graph.Graph
	k      int
	colors []int32
	// adj[c][v] lists the IDs of c-colored edges incident to v.
	adj []map[int32][]int32
}

func newForests(g *graph.Graph, k int) *forests {
	f := &forests{
		g:      g,
		k:      k,
		colors: make([]int32, g.M()),
		adj:    make([]map[int32][]int32, k),
	}
	for i := range f.colors {
		f.colors[i] = verify.Uncolored
	}
	for c := range f.adj {
		f.adj[c] = make(map[int32][]int32)
	}
	return f
}

func (f *forests) addToAdj(c int32, id int32) {
	e := f.g.Edge(id)
	f.adj[c][e.U] = append(f.adj[c][e.U], id)
	f.adj[c][e.V] = append(f.adj[c][e.V], id)
}

func (f *forests) removeFromAdj(c int32, id int32) {
	e := f.g.Edge(id)
	for _, v := range [2]int32{e.U, e.V} {
		lst := f.adj[c][v]
		for i, x := range lst {
			if x == id {
				lst[i] = lst[len(lst)-1]
				f.adj[c][v] = lst[:len(lst)-1]
				break
			}
		}
	}
}

// setColor recolors edge id to c (possibly from another color), keeping
// the adjacency maps consistent. c may be verify.Uncolored.
func (f *forests) setColor(id, c int32) {
	if old := f.colors[id]; old != verify.Uncolored {
		f.removeFromAdj(old, id)
	}
	f.colors[id] = c
	if c != verify.Uncolored {
		f.addToAdj(c, id)
	}
}

// pathInColor returns the IDs of the edges on the unique u-v path in color
// class c, or nil if u and v are disconnected there.
func (f *forests) pathInColor(c, u, v int32) []int32 {
	if u == v {
		// A self-loop cannot occur (graph forbids them), but a u==v query
		// means "already connected with an empty path"; callers treat a
		// non-nil empty slice as a cycle-creating insertion.
		return []int32{}
	}
	parent := make(map[int32]int32) // vertex -> edge ID used to reach it
	visited := map[int32]bool{u: true}
	queue := []int32{u}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, id := range f.adj[c][x] {
			y := f.g.Edge(id).Other(x)
			if visited[y] {
				continue
			}
			visited[y] = true
			parent[y] = id
			if y == v {
				var path []int32
				for cur := v; cur != u; {
					id := parent[cur]
					path = append(path, id)
					cur = f.g.Edge(id).Other(cur)
				}
				return path
			}
			queue = append(queue, y)
		}
	}
	return nil
}

// move records how an edge entered the augmentation BFS: recoloring
// parentEdge to color evicts it (parentEdge = -1 for the start edge).
type move struct {
	parentEdge int32
	color      int32
}

// augment tries to color edge start (currently uncolored) by BFS over
// recoloring moves. It reports whether it succeeded.
func (f *forests) augment(start int32) bool {
	via := map[int32]move{start: {parentEdge: -1, color: -1}}
	queue := []int32{start}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		e := f.g.Edge(x)
		for c := int32(0); int(c) < f.k; c++ {
			if f.colors[x] == c {
				continue
			}
			path := f.pathInColor(c, e.U, e.V)
			if path == nil {
				// x fits in color c: apply the augmenting sequence backwards.
				f.applyChain(via, x, c)
				return true
			}
			for _, y := range path {
				if _, seen := via[y]; seen {
					continue
				}
				via[y] = move{parentEdge: x, color: c}
				queue = append(queue, y)
			}
		}
	}
	return false
}

// applyChain recolors along the BFS parent chain ending at edge last,
// which takes color c; each ancestor takes the color recorded in via.
func (f *forests) applyChain(via map[int32]move, last, c int32) {
	// Collect the chain first: recoloring as we walk would invalidate
	// nothing (the chain is determined), but collecting keeps it clear.
	type step struct{ edge, color int32 }
	var steps []step
	steps = append(steps, step{edge: last, color: c})
	for cur := last; ; {
		m := via[cur]
		if m.parentEdge < 0 {
			break
		}
		steps = append(steps, step{edge: m.parentEdge, color: m.color})
		cur = m.parentEdge
	}
	for _, s := range steps {
		f.setColor(s.edge, s.color)
	}
}

// ForestPartition attempts to partition the edges of g into k forests.
// On success it returns a total coloring (len = g.M(), values in [0,k));
// ok=false means no k-forest decomposition exists. It checks ctx before
// each edge's augmentation and returns ctx.Err() once ctx has ended.
func ForestPartition(ctx context.Context, g *graph.Graph, k int) (colors []int32, ok bool, err error) {
	if k <= 0 {
		return nil, g.M() == 0, nil
	}
	f := newForests(g, k)
	for id := int32(0); int(id) < g.M(); id++ {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if !f.augment(id) {
			return nil, false, nil
		}
	}
	return f.colors, true, nil
}

// Arboricity returns the exact arboricity of g: the minimum k such that g
// decomposes into k forests (0 for edgeless graphs). It also returns a
// witnessing optimal decomposition. Every ForestPartition it runs checks
// ctx, so the search ends with ctx.Err() soon after ctx does.
func Arboricity(ctx context.Context, g *graph.Graph) (alpha int, colors []int32, err error) {
	if g.M() == 0 {
		return 0, make([]int32, 0), nil
	}
	// Lower bound from whole-graph density; find a feasible k by doubling,
	// then binary search the gap.
	lo := int(ceilDiv(int64(g.M()), int64(g.N()-1)))
	if lo < 1 {
		lo = 1
	}
	hi := lo
	var hiColors []int32
	for {
		c, ok, err := ForestPartition(ctx, g, hi)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			hiColors = c
			break
		}
		lo = hi + 1
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		c, ok, err := ForestPartition(ctx, g, mid)
		switch {
		case err != nil:
			return 0, nil, err
		case ok:
			hi = mid
			hiColors = c
		default:
			lo = mid + 1
		}
	}
	return hi, hiColors, nil
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("exact: ceilDiv by %d", b))
	}
	return (a + b - 1) / b
}
