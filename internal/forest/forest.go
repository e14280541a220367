// Package forest maintains mutable partial forest-decomposition state:
// an edge coloring together with per-vertex, per-color incidence indexes
// supporting the path queries C(e, c) that drive the paper's augmenting
// sequences (Section 3) and the CUT procedures (Section 4).
package forest

import (
	"slices"

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
// Each color class also carries a rooted spanning forest: every
// (vertex, color) slot holds the vertex's parent edge in it, so a path
// query walks the path itself (see search). SetColor and Recolor keep it
// current. A colored edge either is exactly one endpoint's parent edge
// or is parked: it closed a cycle when it was linked, and its endpoints
// share a root. A cut that splits a tree relinks a parked edge across
// the split, so a class is a forest exactly when none of its edges is
// parked, and then its rooted forest is the class itself.
//
// Concurrency: the convenience query methods share the State's built-in
// Scratch, so a State is not safe for concurrent use in general. The
// ...With variants take an explicit Scratch. Queries read the parent
// edges of the vertices they walk, and a SetColor or Recolor touches the
// trees of the edges' endpoints, not only the endpoints: a link reroots
// one endpoint's tree, and a cut may relink a parked edge. Callers that
// partition the graph into regions containing every tree their updates
// reach, and whose classes stay forests (so no edge is ever parked),
// may run queries and updates concurrently, one Scratch per goroutine.
// Algorithm 2's same-class clusters under the mod-depth CUT are such
// regions.
type State struct {
	g      *graph.Graph
	colors []int32
	adj    [][]colorSlot
	// parked lists the colored edges that are in no rooted forest: each
	// closed a cycle in its class when it was linked.
	parked []int32

	sc *Scratch
}

// colorSlot is one color's incidence list at a vertex, with the vertex's
// parent edge in that color's rooted forest (-1 at a root). The number
// of distinct colors at a vertex is at most min(degree, palette size),
// so a linear scan over slots beats a map lookup at decomposition
// palette sizes.
type colorSlot struct {
	c      int32
	parent int32
	ids    []int32
}

// Step recolors one edge: Edge takes Color (verify.Uncolored erases).
type Step struct {
	Edge  int32
	Color int32
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
// ladder), and the rooted forests by one BFS per tree.
func FromColors(g *graph.Graph, colors []int32) *State {
	s := New(g)
	s.bulkLoad(colors)
	s.rootAll()
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
				slotArena = append(slotArena, colorSlot{c: c, parent: unrooted})
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

// unrooted marks a slot bulkLoad created and rootAll has not reached.
const unrooted = -2

// rootAll roots every tree of every class by BFS from its first vertex
// in (vertex, slot) order. An edge the BFS finds joining two vertices it
// already holds closes a cycle, and is parked once, from its U end.
func (s *State) rootAll() {
	var queue []int32
	for v := range s.adj {
		for i := range s.adj[v] {
			if s.adj[v][i].parent != unrooted {
				continue
			}
			c := s.adj[v][i].c
			s.adj[v][i].parent = -1
			queue = append(queue[:0], int32(v))
			for head := 0; head < len(queue); head++ {
				x := queue[head]
				xs := s.slot(x, c)
				for _, id := range xs.ids {
					e := s.g.Edge(id)
					y := e.Other(x)
					ys := s.slot(y, c)
					switch {
					case ys.parent == unrooted:
						ys.parent = id
						queue = append(queue, y)
					case id != xs.parent && id != ys.parent && x == e.U:
						s.parked = append(s.parked, id)
					}
				}
			}
		}
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

// SetColor assigns color c to edge id, updating the incidence index and
// the rooted forests: the edge is cut from its old color's forest and
// linked into c's. c may be verify.Uncolored to erase the edge's color.
// A link costs the depths of the edge's endpoints in their c-trees; if
// they already share a tree, the edge closes a cycle and is parked.
func (s *State) SetColor(id, c int32) {
	if s.recolor(id, c) && c != verify.Uncolored {
		s.link(id, c)
	}
}

// Recolor performs the steps in order, as a SetColor loop would, and
// builds the same incidence index, but updates the rooted forests
// cuts-first: every recolored edge leaves its old forest before any
// joins its new one. So when the final coloring is a partial forest
// decomposition, as Lemma 3.1 proves for an augmenting sequence, no
// link closes a cycle, although a SetColor loop over the same steps may
// close one transiently.
func (s *State) Recolor(steps []Step) {
	for _, st := range steps {
		s.recolor(st.Edge, st.Color)
	}
	for _, st := range steps {
		if c := s.colors[st.Edge]; c != verify.Uncolored && !s.inForest(st.Edge, c) {
			s.link(st.Edge, c)
		}
	}
}

// recolor moves edge id to color c in the incidence index, cutting it
// from its old color's forest first; it does not link. It reports
// whether the color changed.
func (s *State) recolor(id, c int32) bool {
	old := s.colors[id]
	if old == c {
		return false
	}
	e := s.g.Edge(id)
	if old != verify.Uncolored {
		s.cut(id, old)
		s.removeIncidence(e.U, old, id)
		s.removeIncidence(e.V, old, id)
	}
	s.colors[id] = c
	if c != verify.Uncolored {
		s.addIncidence(e.U, c, id)
		s.addIncidence(e.V, c, id)
	}
	return true
}

// slot returns v's slot for color c, or nil if v has no c-edge.
func (s *State) slot(v, c int32) *colorSlot {
	slots := s.adj[v]
	for i := range slots {
		if slots[i].c == c {
			return &slots[i]
		}
	}
	return nil
}

// parent returns v's parent edge in c's rooted forest, -1 at a root
// (which includes every vertex without a c-edge).
func (s *State) parent(v, c int32) int32 {
	if sl := s.slot(v, c); sl != nil {
		return sl.parent
	}
	return -1
}

// root returns the root of v's c-tree and v's depth below it.
func (s *State) root(v, c int32) (int32, int) {
	d := 0
	for p := s.parent(v, c); p >= 0; p = s.parent(v, c) {
		v = s.g.Edge(p).Other(v)
		d++
	}
	return v, d
}

// inForest reports whether c-edge id is in c's rooted forest, as a
// parent edge or parked.
func (s *State) inForest(id, c int32) bool {
	e := s.g.Edge(id)
	return s.parent(e.U, c) == id || s.parent(e.V, c) == id || slices.Contains(s.parked, id)
}

// link adds c-edge id, already in the incidence index, to c's rooted
// forest. If its endpoints share a root it closes a cycle and is
// parked; otherwise the endpoint nearer its root reroots its tree and
// hangs it from the edge.
func (s *State) link(id, c int32) {
	e := s.g.Edge(id)
	ru, du := s.root(e.U, c)
	rv, dv := s.root(e.V, c)
	if ru == rv {
		s.parked = append(s.parked, id)
		return
	}
	x := e.U
	if dv < du {
		x = e.V
	}
	// Evert x's tree: reverse the parent edges on x's root path, so x
	// becomes its root, and hang it from id.
	for up := id; ; {
		sl := s.slot(x, c)
		next := sl.parent
		sl.parent = up
		if next < 0 {
			return
		}
		up, x = next, s.g.Edge(next).Other(x)
	}
}

// cut removes c-edge id, still in the incidence index, from c's rooted
// forest. A parked edge is just dropped, and so is an edge Recolor moved
// through c without linking it. A tree edge splits its tree, and the
// first parked c-edge whose endpoints the split separates is linked
// across it; every other parked edge of that tree then has its
// endpoints under one root again.
func (s *State) cut(id, c int32) {
	e := s.g.Edge(id)
	if sl := s.slot(e.U, c); sl.parent == id {
		sl.parent = -1
	} else if sl := s.slot(e.V, c); sl.parent == id {
		sl.parent = -1
	} else {
		if i := slices.Index(s.parked, id); i >= 0 {
			s.unpark(i)
		}
		return
	}
	for i, p := range s.parked {
		if s.colors[p] != c {
			continue
		}
		pe := s.g.Edge(p)
		ru, _ := s.root(pe.U, c)
		if rv, _ := s.root(pe.V, c); ru != rv {
			s.unpark(i)
			s.link(p, c)
			return
		}
	}
}

// unpark removes parked[i] (order is not kept).
func (s *State) unpark(i int) {
	last := len(s.parked) - 1
	s.parked[i] = s.parked[last]
	s.parked = s.parked[:last]
}

func (s *State) addIncidence(v, c, id int32) {
	slots := s.adj[v]
	for i := range slots {
		if slots[i].c == c {
			slots[i].ids = append(slots[i].ids, id)
			return
		}
	}
	s.adj[v] = append(slots, colorSlot{c: c, parent: -1, ids: append(make([]int32, 0, 2), id)})
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
	if sl := s.slot(v, c); sl != nil {
		return sl.ids
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
// guarantees. A query then costs at most twice the longer of the path's
// two halves, from u and from v up to where their root paths join, when
// u and v are connected, and the depths of u and v otherwise (see
// search). If the class has a cycle, a non-nil answer is still a simple
// c-colored u-v path through the region, but not necessarily the one a
// BFS from u finds, and nil may be returned although such a path exists.
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
	// v to b along side B's walk, the meeting edge, then a to u along
	// side A's. Only the result itself is allocated.
	nb := int(sc.hops[b])
	path := make([]int32, nb+1+int(sc.hops[a]))
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

// search decides whether u and v (u != v) are joined by a c-colored path
// whose interior lies in the region, by walking up c's rooted forest:
// side A climbs from u, side B from v, one parent edge per turn, in
// alternation. Each side tags the vertices it reaches in the Scratch's
// mark with its own epoch, and parentEdge with the edge it arrived by.
// A side stops at its root, or just after it tags its first vertex
// outside the region (its start vertex always climbs). hops counts each
// tagged vertex's edges back to its side's start.
//
// In a forest, each side's tagged vertices are a prefix of its start's
// root path, so the first vertex both sides tag is the top of the u-v
// path, where the two root paths join. The path stays in the region
// exactly when that vertex is u, v or a within vertex, and the sides
// reached it only through within vertices: the verdict of a one-sided
// BFS from u. When u and v are connected the walk costs at most twice
// the longer side's share of the path; otherwise both sides climb until
// they stop, the depths of u and v at most.
//
// On success a and b are the side-A and side-B ends of the meeting edge
// mid, the edge on which the second side reached the meeting vertex;
// parentEdge leads from a back to u and from b back to v, in hops[a]
// and hops[b] edges. It allocates nothing.
func (s *State) search(sc *Scratch, c, u, v int32, within func(int32) bool) (a, b, mid int32, ok bool) {
	su, sv := s.slot(u, c), s.slot(v, c)
	if su == nil || sv == nil {
		return -1, -1, -1, false
	}
	sc.grow(s.g.N())
	ep := sc.next()
	tag := [2]uint32{ep, ep + 1}
	start := [2]int32{u, v}
	at := start
	// up[i] is the edge side i climbs next, -1 once it has stopped.
	up := [2]int32{su.parent, sv.parent}
	sc.mark[u], sc.mark[v] = tag[0], tag[1]
	sc.hops[u], sc.hops[v] = 0, 0
	for i := 0; up[0] >= 0 || up[1] >= 0; i ^= 1 {
		id := up[i]
		if id < 0 {
			continue
		}
		x := at[i]
		y := s.g.Edge(id).Other(x)
		if sc.mark[y] == tag[1-i] {
			ok = y == start[1-i] || within == nil || within(y)
			if i == 1 {
				return y, x, id, ok
			}
			return x, y, id, ok
		}
		sc.mark[y] = tag[i]
		sc.parentEdge[y] = id
		sc.hops[y] = sc.hops[x] + 1
		at[i], up[i] = y, -1
		if within == nil || within(y) {
			up[i] = s.parent(y, c)
		}
	}
	return -1, -1, -1, false
}

// ConnectedInColor reports whether u and v are connected in color c,
// searching only within the given region (nil = everywhere). Unlike
// PathInColor it does not materialize the path, so it is allocation-free.
// The precondition and cost are PathInColor's: the c-class must be a
// forest, and the query costs the walk up to the meeting vertex.
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
