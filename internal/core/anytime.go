package core

import (
	"nwforest/internal/graph"
	"nwforest/internal/unionfind"
	"nwforest/internal/verify"
)

// Checkpointer captures servable snapshots of an in-flight decomposition
// at its phase boundaries (the service's anytime mode). The
// paper's algorithms are phase-structured: after every Algorithm 2 class
// — and after the leftover recoloring — the partial coloring is a valid
// partial forest decomposition, so completing its uncolored edges with
// fresh colors yields a full forest decomposition whose color count is
// an honest quality bound. Offer does exactly that: it greedily extends
// the snapshot with first-fit fresh colors (one union-find per extra
// color, colors allocated above every color already in use), verifies
// the result, and keeps it iff it uses no more colors than the best
// snapshot so far — which makes the reported bound monotonically
// non-increasing across phases by construction, even though CUT phases
// can uncolor previously colored edges.
//
// A Checkpointer is confined to the goroutine running the decomposition
// (offers happen in the sequential class loop, never inside parallel
// cluster workers); Best may be read afterwards by the same goroutine.
// It deliberately touches neither the run's rng streams nor its
// dist.Cost, so a run that finishes before its deadline produces output
// bit-identical to the same run without a Checkpointer.
type Checkpointer struct {
	g      *graph.Graph
	target int

	best      []int32
	bestUsed  int
	bestK     int // color-range bound of best: MaxColor(best)+1
	bestPhase string

	offers  int
	taken   int
	invalid int

	// Scratch reused across offers.
	snap []int32
	dsus []*unionfind.DSU

	// Observer, when non-nil, sees every offered candidate: the completed
	// coloring (valid only during the call), the distinct colors it uses,
	// and the best bound after the offer was considered. Test hook.
	Observer func(phase string, colors []int32, used, bestUsed int)
}

// NewCheckpointer returns a Checkpointer for g. target is the color
// budget a complete run aims for (e.g. ceil((1+eps)*alpha)+1); it is
// metadata for quality reporting and never constrains the snapshots.
func NewCheckpointer(g *graph.Graph, target int) *Checkpointer {
	return &Checkpointer{g: g, target: target}
}

// Offer considers the current partial coloring (colors[id] is the color
// of edge id, verify.Uncolored for none) as a checkpoint labeled with
// the phase that just ended. colors is only read. Invalid candidates —
// possible when a randomized CUT attempt went bad — are dropped, so
// every retained checkpoint is a verified forest decomposition.
func (cp *Checkpointer) Offer(colors []int32, phase string) {
	if cp == nil {
		return
	}
	cp.offers++
	cand, maxc := cp.complete(colors)
	if cand == nil {
		return
	}
	used := verify.ColorsUsed(cand)
	if cp.best == nil || used <= cp.bestUsed {
		if verify.ForestDecomposition(cp.g, cand, int(maxc)+1) == nil {
			if cp.best == nil {
				cp.best = make([]int32, len(cand))
			}
			copy(cp.best, cand)
			cp.bestUsed = used
			cp.bestK = int(maxc) + 1
			cp.bestPhase = phase
			cp.taken++
		} else {
			cp.invalid++
		}
	}
	if cp.Observer != nil {
		cp.Observer(phase, cand, used, cp.bestUsed)
	}
}

// complete copies colors into scratch and first-fit colors every
// uncolored edge with fresh colors starting above the maximum color in
// use, keeping each fresh color class acyclic with its own union-find.
// It returns nil on graphs containing a self-loop (no forest
// decomposition exists at all).
func (cp *Checkpointer) complete(colors []int32) ([]int32, int32) {
	m := cp.g.M()
	if cap(cp.snap) < m {
		cp.snap = make([]int32, m)
	}
	snap := cp.snap[:m]
	copy(snap, colors)
	maxc := int32(-1)
	for _, c := range snap {
		if c > maxc {
			maxc = c
		}
	}
	base := maxc + 1
	live := 0 // dsus reset and in use for this offer
	for id := int32(0); id < int32(m); id++ {
		if snap[id] != verify.Uncolored {
			continue
		}
		e := cp.g.Edge(id)
		if e.U == e.V {
			return nil, 0
		}
		for j := 0; ; j++ {
			if j == live {
				if j == len(cp.dsus) {
					cp.dsus = append(cp.dsus, unionfind.New(cp.g.N()))
				} else {
					cp.dsus[j].Reset()
				}
				live++
			}
			if cp.dsus[j].Union(int(e.U), int(e.V)) {
				snap[id] = base + int32(j)
				if snap[id] > maxc {
					maxc = snap[id]
				}
				break
			}
		}
	}
	return snap, maxc
}

// Best returns a copy of the best checkpoint so far: its coloring, the
// distinct colors it uses (the quality bound), and the color-range
// bound k such that verify.ForestDecomposition(g, colors, k) passes.
// ok is false when no valid checkpoint was retained.
func (cp *Checkpointer) Best() (colors []int32, used, k int, ok bool) {
	if cp == nil || cp.best == nil {
		return nil, 0, 0, false
	}
	out := make([]int32, len(cp.best))
	copy(out, cp.best)
	return out, cp.bestUsed, cp.bestK, true
}

// BestPhase names the phase boundary the best checkpoint was taken at.
func (cp *Checkpointer) BestPhase() string {
	if cp == nil {
		return ""
	}
	return cp.bestPhase
}

// Target reports the color budget a complete run aims for.
func (cp *Checkpointer) Target() int {
	if cp == nil {
		return 0
	}
	return cp.target
}

// Checkpoints reports how many snapshots were offered.
func (cp *Checkpointer) Checkpoints() int {
	if cp == nil {
		return 0
	}
	return cp.offers
}
