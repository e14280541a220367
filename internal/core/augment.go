// Package core implements the paper's primary contribution: local
// augmenting sequences for list forest decomposition (Section 3), the CUT
// load-balancing procedures (Section 4.1), the network-decomposition
// driven Algorithm 2 (Section 4), diameter reduction (Proposition 2.4),
// vertex-color-splitting (Theorem 4.9), and the star-forest
// decompositions of Section 5 and Theorem 2.3.
package core

import (
	"fmt"

	"nwforest/internal/forest"
	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// Step is one element (e_i, c_i) of an augmenting sequence.
type Step = forest.Step

// Sequence is an augmenting sequence w.r.t. a partial list forest
// decomposition: its first edge is uncolored, each subsequent edge lies on
// the monochromatic path closed by recoloring its predecessor, and the
// last recoloring closes no path (conditions (A1)-(A5) of the paper).
type Sequence []Step

// SearchStats instruments FindAugmenting for the Figure 1 / Figure 2
// experiments.
type SearchStats struct {
	// GrowthSizes[i] is |E_i|, the size of the explored edge set after
	// iteration i of Algorithm 1 (frontier expansions).
	GrowthSizes []int
	// Length is the length of the returned sequence (0 if none).
	Length int
	// Radius is the maximum hop distance from the start edge to any edge
	// of the returned sequence.
	Radius int
	// Visited is the number of distinct edges that entered the search.
	// An edge with a free color ends the search before any of its paths
	// is followed, so the edges of those paths are not counted.
	Visited int
}

// searchNode records how an edge entered the search: it lies on
// C(parentEdge, color), where color is also the edge's current color.
type searchNode struct {
	parentEdge int32 // -1 for the start edge
	color      int32
}

// Searcher runs Algorithm 1 searches over one forest.State, reusing flat
// per-edge and per-vertex scratch across calls. One decomposition issues
// a search per uncolored edge, so hoisting the visit maps out of the
// call is most of the end-to-end allocation profile.
type Searcher struct {
	st *forest.State
	g  *graph.Graph

	// fsc backs this Searcher's path queries against st, so concurrent
	// Searchers over vertex-disjoint regions of one State do not share
	// query scratch (the parallel-core contract; see forest.Scratch).
	fsc *forest.Scratch

	// Per-edge search state, epoch-stamped: edge y is in the current
	// search iff viaEpoch[y] == epoch, and viaNode[y] then records how
	// it was reached.
	viaEpoch []uint32
	viaNode  []searchNode
	queue    []int32
	epoch    uint32

	// seqRadius scratch: needed[v] == epoch marks a sequence endpoint
	// the BFS has yet to reach.
	needed []uint32
	bfs    graph.BFSEpochScratch
}

// NewSearcher returns a Searcher over st's graph.
func NewSearcher(st *forest.State) *Searcher {
	g := st.Graph()
	return &Searcher{
		st:       st,
		g:        g,
		fsc:      forest.NewScratch(g.N()),
		viaEpoch: make([]uint32, g.M()),
		viaNode:  make([]searchNode, g.M()),
		needed:   make([]uint32, g.N()),
	}
}

func (s *Searcher) nextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 { // wrapped: restamp so stale marks cannot collide
		clear(s.viaEpoch)
		clear(s.needed)
		s.epoch = 1
	}
	return s.epoch
}

// FindAugmenting runs Algorithm 1 from the uncolored edge start: a BFS
// over edges where exploring edge x with candidate color c follows the
// monochromatic path C(x, c). It terminates when some (x, c) has
// C(x, c) = empty, yielding an almost augmenting sequence, which is then
// short-circuited (Proposition 3.4) into an augmenting sequence. Each
// expanded x first tries its palette in order with allocation-free
// connectivity queries and copies its paths only when every color is
// connected, so a search costs the answer it returns.
//
//   - palettes[e] lists the usable colors of edge e (condition (A5));
//   - withinSearch bounds the region whose edges may join the sequence
//     (N^{R'}(e) in Theorem 3.2); nil means unbounded;
//   - withinPath bounds the region monochromatic paths may traverse
//     (C” in Algorithm 2); nil means unbounded.
//
// It returns nil if no augmenting sequence was found under these bounds.
func (s *Searcher) FindAugmenting(palettes [][]int32, start int32,
	withinSearch, withinPath func(int32) bool) (Sequence, SearchStats) {

	var stats SearchStats
	st := s.st
	if st.Color(start) != verify.Uncolored {
		panic(fmt.Sprintf("core: FindAugmenting from colored edge %d", start))
	}
	g := s.g
	ep := s.nextEpoch()
	s.viaEpoch[start] = ep
	s.viaNode[start] = searchNode{parentEdge: -1, color: -1}
	visited := 1
	s.queue = append(s.queue[:0], start)
	frontierEnd := 1 // boundary of the current BFS layer, for stats

	for head := 0; head < len(s.queue); head++ {
		if head == frontierEnd {
			stats.GrowthSizes = append(stats.GrowthSizes, len(s.queue))
			frontierEnd = len(s.queue)
		}
		x := s.queue[head]
		e := g.Edge(x)
		cur := st.Color(x)
		for _, c := range palettes[x] {
			if c != cur && !st.ConnectedInColorWith(s.fsc, c, e.U, e.V, withinPath) {
				// Almost augmenting sequence found; backtrack the chain.
				seq := s.backtrack(x, c)
				seq = shortCircuit(st, s.fsc, seq, withinPath)
				stats.Visited = visited
				stats.Length = len(seq)
				stats.Radius = s.seqRadius(seq)
				return seq, stats
			}
		}
		for _, c := range palettes[x] {
			if c == cur {
				continue
			}
			for _, y := range st.PathInColorWith(s.fsc, c, e.U, e.V, withinPath) {
				if s.viaEpoch[y] == ep {
					continue
				}
				ye := g.Edge(y)
				if withinSearch != nil && !(withinSearch(ye.U) && withinSearch(ye.V)) {
					continue
				}
				s.viaEpoch[y] = ep
				s.viaNode[y] = searchNode{parentEdge: x, color: c}
				visited++
				s.queue = append(s.queue, y)
			}
		}
	}
	stats.Visited = visited
	return nil, stats
}

// backtrack reconstructs the almost augmenting sequence ending at edge
// last, which takes color c.
func (s *Searcher) backtrack(last, c int32) Sequence {
	var rev Sequence
	rev = append(rev, Step{Edge: last, Color: c})
	for cur := last; ; {
		node := s.viaNode[cur]
		if node.parentEdge < 0 {
			break
		}
		// The parent takes the color whose path contained cur.
		rev = append(rev, Step{Edge: node.parentEdge, Color: node.color})
		cur = node.parentEdge
	}
	// Reverse into e_1 ... e_l order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// shortCircuit enforces condition (A3): while some e_i lies on C(e_j, c_j)
// with j < i-1, splice out the intermediate steps (Proposition 3.4).
func shortCircuit(st *forest.State, sc *forest.Scratch, seq Sequence, withinPath func(int32) bool) Sequence {
	g := st.Graph()
	for changed := true; changed; {
		changed = false
	scan:
		for j := 0; j+2 < len(seq); j++ {
			e := g.Edge(seq[j].Edge)
			path := st.PathInColorWith(sc, seq[j].Color, e.U, e.V, withinPath)
			onPath := make(map[int32]struct{}, len(path))
			for _, id := range path {
				onPath[id] = struct{}{}
			}
			for i := len(seq) - 1; i > j+1; i-- {
				if _, hit := onPath[seq[i].Edge]; hit {
					spliced := append(Sequence{}, seq[:j+1]...)
					seq = append(spliced, seq[i:]...)
					changed = true
					break scan
				}
			}
		}
	}
	return seq
}

// seqRadius returns the maximum hop distance from the start edge to any
// sequence edge (Theorem 3.2's containment radius). The BFS runs on the
// Searcher's scratch and stops as soon as every sequence endpoint has
// been reached, so it never pays for the whole graph when the sequence
// is local (the common case Theorem 3.2 guarantees).
func (s *Searcher) seqRadius(seq Sequence) int {
	if len(seq) <= 1 {
		return 0
	}
	g := s.g
	ep := s.nextEpoch()
	need := 0
	for _, step := range seq[1:] {
		e := g.Edge(step.Edge)
		for _, v := range [2]int32{e.U, e.V} {
			if s.needed[v] != ep {
				s.needed[v] = ep
				need++
			}
		}
	}
	e0 := g.Edge(seq[0].Edge)
	maxR := 0
	g.BFSEpochWith(&s.bfs, []int32{e0.U, e0.V}, -1, func(v int32, d int) bool {
		if s.needed[v] == ep {
			need--
			maxR = max(maxR, d)
		}
		return need > 0
	})
	return maxR
}

// Apply performs the augmentation: every sequence edge takes its sequence
// color (Lemma 3.1 proves the result remains a partial list forest
// decomposition). forest.State.Recolor updates the incidence index in
// sequence order and the rooted forests cuts-first, so by the same lemma
// no link closes a cycle.
func Apply(st *forest.State, seq Sequence) {
	st.Recolor(seq)
}
