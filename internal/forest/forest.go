// Package forest maintains mutable partial forest-decomposition state:
// an edge coloring together with per-vertex, per-color incidence indexes
// supporting the path queries C(e, c) that drive the paper's augmenting
// sequences (Section 3) and the CUT procedures (Section 4).
package forest

import (
	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// State is a partial edge coloring of a graph with per-color adjacency.
//
// The incidence index stores per-vertex slices of (color, edge-id) slots,
// int32 throughout and arena-backed on bulk construction. Each
// (vertex, color) edge list keeps a contractual order — append on color,
// swap-delete on erase, and FromColors builds the order an id-ascending
// SetColor loop would — because traversal order feeds the augmenting
// search, so every decomposition built on the queries depends on it.
// ColorsAt's order is unspecified; callers must not rely on it.
//
// Concurrency: the convenience query methods share the State's built-in
// Scratch, so a State is not safe for concurrent use in general. The
// ...With variants take an explicit Scratch; callers that partition the
// graph into vertex-disjoint regions (Algorithm 2's same-class clusters)
// may run queries — and SetColor on edges whose endpoints stay inside
// their own region — concurrently, one Scratch per goroutine.
type State struct {
	g      *graph.Graph
	colors []int32
	adj    [][]colorSlot

	sc *Scratch
}

// colorSlot is one color's incidence list at a vertex. The number of
// distinct colors at a vertex is at most min(degree, palette size), so a
// linear scan over slots beats a map lookup at decomposition palette
// sizes.
type colorSlot struct {
	c   int32
	ids []int32
}

// New returns an all-uncolored state over g.
func New(g *graph.Graph) *State {
	s := &State{
		g:      g,
		colors: make([]int32, g.M()),
		adj:    make([][]colorSlot, g.N()),
		sc:     NewScratch(g.N()),
	}
	for i := range s.colors {
		s.colors[i] = verify.Uncolored
	}
	return s
}

// FromColors returns a state initialized with the given coloring (which
// is copied). The incidence index is built in bulk from two arena
// allocations instead of one append chain per SetColor, which matters to
// callers that rebuild a State per repair (the dynamic maintenance
// ladder).
func FromColors(g *graph.Graph, colors []int32) *State {
	s := New(g)
	s.bulkLoad(colors)
	return s
}

// bulkLoad builds the incidence index for the given coloring.
// The resulting per-(vertex, color) lists are identical — same contents,
// same order — to those an id-ascending SetColor loop would build:
// slots appear in first-occurrence order, ids ascend within a slot.
func (s *State) bulkLoad(colors []int32) {
	g := s.g
	n := g.N()
	// Pass 1: colored incidences per vertex.
	deg := make([]int32, n)
	total := 0
	for id, c := range colors {
		if c == verify.Uncolored {
			continue
		}
		e := g.Edge(int32(id))
		deg[e.U]++
		deg[e.V]++
		total += 2
		s.colors[id] = c
	}
	if total == 0 {
		return
	}
	// Pass 2: per-vertex colored incident edges, id-ascending, carved
	// from one arena.
	regionArena := make([]int32, total)
	regions := make([][]int32, n)
	off := 0
	for v := 0; v < n; v++ {
		regions[v] = regionArena[off : off : off+int(deg[v])]
		off += int(deg[v])
	}
	for id, c := range colors {
		if c == verify.Uncolored {
			continue
		}
		e := g.Edge(int32(id))
		regions[e.U] = append(regions[e.U], int32(id))
		regions[e.V] = append(regions[e.V], int32(id))
	}
	// Pass 3: per vertex, discover its slots (first-occurrence color
	// order) with per-slot counts, carve each slot's ids exactly from
	// the shared arena, then fill. slotArena grows once past its
	// estimate at most; ids never reallocate.
	slotArena := make([]colorSlot, 0, n)
	var cnts []int32
	idsArena := make([]int32, total)
	idsOff := 0
	for v := 0; v < n; v++ {
		if len(regions[v]) == 0 {
			continue
		}
		start := len(slotArena)
		cnts = cnts[:0]
		for _, id := range regions[v] {
			c := colors[id]
			found := -1
			for i := start; i < len(slotArena); i++ {
				if slotArena[i].c == c {
					found = i - start
					break
				}
			}
			if found < 0 {
				slotArena = append(slotArena, colorSlot{c: c})
				cnts = append(cnts, 0)
				found = len(cnts) - 1
			}
			cnts[found]++
		}
		for i, cnt := range cnts {
			slotArena[start+i].ids = idsArena[idsOff : idsOff : idsOff+int(cnt)]
			idsOff += int(cnt)
		}
		for _, id := range regions[v] {
			c := colors[id]
			for i := start; i < len(slotArena); i++ {
				if slotArena[i].c == c {
					slotArena[i].ids = append(slotArena[i].ids, id)
					break
				}
			}
		}
		s.adj[v] = slotArena[start:len(slotArena):len(slotArena)]
	}
}

// Graph returns the underlying graph.
func (s *State) Graph() *graph.Graph { return s.g }

// Scratch returns the State's built-in query scratch (the one the
// convenience methods use). Concurrent readers must use their own
// NewScratch instead.
func (s *State) Scratch() *Scratch { return s.sc }

// Color returns the color of edge id (verify.Uncolored if none).
func (s *State) Color(id int32) int32 { return s.colors[id] }

// Colors returns a copy of the full coloring.
func (s *State) Colors() []int32 {
	out := make([]int32, len(s.colors))
	copy(out, s.colors)
	return out
}

// SetColor assigns color c to edge id, updating the incidence index.
// c may be verify.Uncolored to erase the edge's color.
func (s *State) SetColor(id, c int32) {
	old := s.colors[id]
	if old == c {
		return
	}
	e := s.g.Edge(id)
	if old != verify.Uncolored {
		s.removeIncidence(e.U, old, id)
		s.removeIncidence(e.V, old, id)
	}
	s.colors[id] = c
	if c != verify.Uncolored {
		s.addIncidence(e.U, c, id)
		s.addIncidence(e.V, c, id)
	}
}

func (s *State) addIncidence(v, c, id int32) {
	slots := s.adj[v]
	for i := range slots {
		if slots[i].c == c {
			slots[i].ids = append(slots[i].ids, id)
			return
		}
	}
	s.adj[v] = append(slots, colorSlot{c: c, ids: append(make([]int32, 0, 2), id)})
}

func (s *State) removeIncidence(v, c, id int32) {
	slots := s.adj[v]
	for i := range slots {
		if slots[i].c != c {
			continue
		}
		ids := slots[i].ids
		for j, x := range ids {
			if x == id {
				ids[j] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				break
			}
		}
		if len(ids) == 0 {
			last := len(slots) - 1
			slots[i] = slots[last]
			slots[last] = colorSlot{} // release the ids backing array
			s.adj[v] = slots[:last]
		} else {
			slots[i].ids = ids
		}
		return
	}
}

// incident returns the (vertex, color) edge list without copying.
func (s *State) incident(v, c int32) []int32 {
	for i := range s.adj[v] {
		if s.adj[v][i].c == c {
			return s.adj[v][i].ids
		}
	}
	return nil
}

// IncidentInColor returns the IDs of c-colored edges incident to v.
// Callers must not modify the returned slice.
func (s *State) IncidentInColor(v, c int32) []int32 { return s.incident(v, c) }

// DegreeInColor returns the number of c-colored edges at v.
func (s *State) DegreeInColor(v, c int32) int { return len(s.incident(v, c)) }

// ColorsAt returns the set of colors present at v, in unspecified order.
func (s *State) ColorsAt(v int32) []int32 {
	slots := s.adj[v]
	out := make([]int32, 0, len(slots))
	for i := range slots {
		out = append(out, slots[i].c)
	}
	return out
}

// PathInColor returns the edge IDs of the unique u-v path in the c-colored
// forest, ordered from v to u, or nil if u and v are disconnected in
// color c. If within is non-nil, the search only traverses vertices w
// with within(w) true (u and v themselves are always allowed); a path
// escaping the region is treated as disconnection. This is the paper's
// C(e, c) primitive.
//
// The c-class must be a forest, which every partial forest decomposition
// guarantees. The query then costs the two search balls around u and v
// up to the vertex where they meet (see search), not u's whole c-tree.
// If the class has a cycle, a non-nil answer is still a simple c-colored
// u-v path through the region, but not necessarily the one a BFS from u
// finds, and nil may be returned although such a path exists.
func (s *State) PathInColor(c, u, v int32, within func(int32) bool) []int32 {
	return s.PathInColorWith(s.sc, c, u, v, within)
}

// PathInColorWith is PathInColor on a caller-owned Scratch.
func (s *State) PathInColorWith(sc *Scratch, c, u, v int32, within func(int32) bool) []int32 {
	if u == v {
		return []int32{}
	}
	a, b, mid, ok := s.search(sc, c, u, v, within)
	if !ok {
		return nil
	}
	// v to b along side B's parent edges, the meeting edge, then a to u
	// along side A's. Only the result itself is allocated.
	nb := s.hops(sc, b, v)
	path := make([]int32, nb+1+s.hops(sc, a, u))
	i := nb
	for x := b; x != v; {
		i--
		path[i] = sc.parentEdge[x]
		x = s.g.Edge(path[i]).Other(x)
	}
	path[nb] = mid
	i = nb + 1
	for x := a; x != u; i++ {
		path[i] = sc.parentEdge[x]
		x = s.g.Edge(path[i]).Other(x)
	}
	return path
}

// hops counts the parent edges search stamped from x back to root, the
// start of x's side.
func (s *State) hops(sc *Scratch, x, root int32) int {
	n := 0
	for ; x != root; n++ {
		x = s.g.Edge(sc.parentEdge[x]).Other(x)
	}
	return n
}

// search decides whether u and v (u != v) are joined by a c-colored path
// whose interior lies in the region, by a balanced bidirectional BFS:
// side A grows from u, side B from v, and the side with fewer pending
// vertices expands next. Each side expands only its start vertex and
// within vertices, stamping the Scratch's mark with its own epoch and
// parentEdge with the edge that reached each vertex.
//
// In a forest, each side's marked set is a subtree containing its start,
// so the first vertex both sides mark lies on the unique u-v path. That
// path stays in the region exactly when the vertex is u, v or a within
// vertex: otherwise it is an interior vertex neither side may expand.
// This is exactly the verdict of a one-sided BFS from u, at the cost of
// the two balls up to the meeting vertex. A side that runs out of pending vertices first has
// exhausted its reach without meeting the other: not connected.
//
// On success a and b are the side-A and side-B ends of the meeting edge
// mid; parentEdge leads from a back to u and from b back to v. It
// allocates nothing beyond growing the scratch queues.
func (s *State) search(sc *Scratch, c, u, v int32, within func(int32) bool) (a, b, mid int32, ok bool) {
	if len(s.incident(u, c)) == 0 || len(s.incident(v, c)) == 0 {
		return -1, -1, -1, false
	}
	sc.grow(s.g.N())
	ep := sc.next()
	tag := [2]uint32{ep, ep + 1}
	root := [2]int32{u, v}
	q := &sc.queue
	q[0], q[1] = append(q[0][:0], u), append(q[1][:0], v)
	var head [2]int
	sc.mark[u], sc.mark[v] = tag[0], tag[1]
	for head[0] < len(q[0]) && head[1] < len(q[1]) {
		i := 0
		if len(q[1])-head[1] < len(q[0])-head[0] {
			i = 1
		}
		x := q[i][head[i]]
		head[i]++
		for _, id := range s.incident(x, c) {
			y := s.g.Edge(id).Other(x)
			switch sc.mark[y] {
			case tag[i]:
				continue
			case tag[1-i]:
				ok = y == root[1-i] || within == nil || within(y)
				if i == 1 {
					return y, x, id, ok
				}
				return x, y, id, ok
			}
			sc.mark[y] = tag[i]
			sc.parentEdge[y] = id
			if within == nil || within(y) {
				q[i] = append(q[i], y)
			}
		}
	}
	return -1, -1, -1, false
}

// ConnectedInColor reports whether u and v are connected in color c,
// searching only within the given region (nil = everywhere). Unlike
// PathInColor it does not materialize the path, so it is allocation-free.
// The precondition and cost are PathInColor's: the c-class must be a
// forest, and the query costs the two balls up to the meeting vertex.
func (s *State) ConnectedInColor(c, u, v int32, within func(int32) bool) bool {
	return s.ConnectedInColorWith(s.sc, c, u, v, within)
}

// ConnectedInColorWith is ConnectedInColor on a caller-owned Scratch.
func (s *State) ConnectedInColorWith(sc *Scratch, c, u, v int32, within func(int32) bool) bool {
	if u == v {
		return true
	}
	_, _, _, ok := s.search(sc, c, u, v, within)
	return ok
}

// ComponentInColor returns the vertices of the c-colored component
// containing v (including v even if isolated in c).
func (s *State) ComponentInColor(c, v int32) []int32 {
	return s.ComponentInColorWith(s.sc, c, v)
}

// ComponentInColorWith is ComponentInColor on a caller-owned Scratch.
func (s *State) ComponentInColorWith(sc *Scratch, c, v int32) []int32 {
	sc.grow(s.g.N())
	ep := sc.next()
	sc.mark[v] = ep
	out := []int32{v}
	for head := 0; head < len(out); head++ {
		x := out[head]
		for _, id := range s.incident(x, c) {
			y := s.g.Edge(id).Other(x)
			if sc.mark[y] != ep {
				sc.mark[y] = ep
				out = append(out, y)
			}
		}
	}
	return out
}

// Rooted describes one rooted monochromatic tree: Parent[i] is the parent
// edge ID of Verts[i] (-1 for the root, which is Verts[0]); Depth[i] is
// the hop distance from the root.
type Rooted struct {
	Verts  []int32
	Parent []int32
	Depth  []int32
}

// RootedTreesInColor decomposes the c-colored forest restricted to the
// given vertex region into rooted trees. Roots are chosen by preference:
// if rootPref is non-nil and returns true for some vertex of a tree, the
// first such vertex (in region order) becomes the root; otherwise the
// first-encountered vertex does. Vertices outside region are ignored.
func (s *State) RootedTreesInColor(c int32, region []int32, rootPref func(int32) bool) []Rooted {
	return s.RootedTreesInColorWith(s.sc, c, region, rootPref)
}

// RootedTreesInColorWith is RootedTreesInColor on a caller-owned Scratch.
func (s *State) RootedTreesInColorWith(sc *Scratch, c int32, region []int32, rootPref func(int32) bool) []Rooted {
	// One epoch stamps both scratch arrays: regionMark gates membership,
	// mark tracks visitation. The per-call maps this replaces dominated
	// the CUT procedures' allocation profile.
	sc.grow(s.g.N())
	ep := sc.next()
	for _, v := range region {
		sc.regionMark[v] = ep
	}
	var trees []Rooted
	// Two passes so preferred roots win: first start trees from preferred
	// vertices, then from anything left.
	for pass := 0; pass < 2; pass++ {
		for _, v := range region {
			if sc.mark[v] == ep || s.DegreeInColor(v, c) == 0 {
				continue
			}
			if pass == 0 && (rootPref == nil || !rootPref(v)) {
				continue
			}
			tr := Rooted{Verts: []int32{v}, Parent: []int32{-1}, Depth: []int32{0}}
			sc.mark[v] = ep
			for head := 0; head < len(tr.Verts); head++ {
				x := tr.Verts[head]
				for _, id := range s.incident(x, c) {
					y := s.g.Edge(id).Other(x)
					if sc.mark[y] == ep || sc.regionMark[y] != ep {
						continue
					}
					sc.mark[y] = ep
					tr.Verts = append(tr.Verts, y)
					tr.Parent = append(tr.Parent, id)
					tr.Depth = append(tr.Depth, tr.Depth[head]+1)
				}
			}
			trees = append(trees, tr)
		}
	}
	return trees
}
