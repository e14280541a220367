package forest

import "math"

// Scratch holds the epoch-stamped buffers behind the State query methods
// (PathInColorWith, ConnectedInColorWith, ComponentInColorWith,
// RootedTreesInColorWith). Every query takes one and a State has none of
// its own, so reads on distinct Scratches may run concurrently, and
// queries over disjoint regions of one State can run in parallel (the
// parallel per-cluster phase of Algorithm 2 gives each worker its own
// Scratch).
//
// A Scratch must not be shared between concurrent queries, and a
// `within` callback must not call back into query methods using the
// same Scratch — a nested query would restamp the buffers out from
// under the outer one. Callbacks that only read Color/DegreeInColor
// or caller-owned state are fine (every callback in this module is of
// that form).
type Scratch struct {
	// mark[v] holds the epoch of the query that last visited v; each
	// query owns two fresh epochs (next), which the path search uses to
	// tell its two sides apart. Bumping epoch invalidates all marks in
	// O(1), so the queries themselves allocate only their results. The
	// augmenting-sequence search calls PathInColorWith once per (edge,
	// color) probe — with per-call maps this scratch was ~95% of the
	// end-to-end decomposition's allocated bytes.
	mark       []uint32
	regionMark []uint32
	parentEdge []int32
	hops       []int32 // the path search's edge counts back to each side's start
	epoch      uint32
}

// NewScratch returns a Scratch for graphs of up to n vertices. It grows
// on demand if later used with a larger State.
func NewScratch(n int) *Scratch {
	sc := &Scratch{}
	sc.grow(n)
	return sc
}

// grow ensures capacity for n vertices, preserving nothing (the epoch
// restarts, so stale marks are harmless).
func (sc *Scratch) grow(n int) {
	if cap(sc.mark) >= n {
		return
	}
	sc.mark = make([]uint32, n)
	sc.regionMark = make([]uint32, n)
	sc.parentEdge = make([]int32, n)
	sc.hops = make([]int32, n)
	sc.epoch = 0
}

// next starts a new scratch lifetime and returns its epoch ep: the query
// may stamp with ep and ep+1, and every previous mark becomes stale.
// Before the pair would reach uint32 wraparound the mark arrays are
// rewritten once, so no ancient stamp can collide with a live epoch.
func (sc *Scratch) next() uint32 {
	if sc.epoch >= math.MaxUint32-1 {
		clear(sc.mark)
		clear(sc.regionMark)
		sc.epoch = 0
	}
	sc.epoch += 2
	return sc.epoch - 1
}
