package core

import (
	"nwforest/internal/forest"
	"nwforest/internal/graph"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

// CutRule selects one of the paper's CUT implementations (Theorem 4.2).
type CutRule int

const (
	// CutModDepth is the depth-mod-N random cutting of Theorem 4.2(1)/(2):
	// root every monochromatic annulus tree, draw J uniformly, and delete
	// the edges at depth ≡ J (mod N). Goodness holds with probability one;
	// the per-vertex load is 1/N per (class, color).
	CutModDepth CutRule = iota + 1
	// CutSampled is the conditioned sampling of Theorem 4.2(3)/(4) (after
	// Su-Vu [SV19b]): every annulus vertex below its load cap deletes a
	// random outgoing edge of a fixed 3α-orientation with probability p.
	// Goodness holds w.h.p.; the load is capped deterministically.
	CutSampled
)

// RunCutModDepth exposes the mod-depth CUT rule standalone, for the
// Figure 3 experiment and for external study of the rule's behaviour.
func RunCutModDepth(st *forest.State, annulus []int32, inInner func(int32) bool, r int, src *rng.Source) []int32 {
	return cutModDepth(st, st.Scratch(), annulus, inInner, r, src)
}

// RunCutSampled exposes one invocation of the conditioned-sampling CUT
// rule standalone: it builds a fresh low-out-degree orientation, caps the
// per-vertex load at alpha, and deletes with probability p.
func RunCutSampled(g *graph.Graph, st *forest.State, annulus []int32, alpha int, p float64, src *rng.Source) []int32 {
	// Lower-endpoint orientation, grouped CSR-style: one shared backing
	// array instead of a slice per vertex.
	outEdges := g.GroupEdges(func(id int32) int32 {
		e := g.Edge(id)
		return min(e.U, e.V)
	})
	s := newSampleCutState(outEdges, alpha, p)
	return s.cut(st, annulus, src)
}

// cutModDepth removes colored edges of the annulus so that every
// monochromatic component of the annulus-induced subgraph has depth at
// most n = floor((R-2)/2), disconnecting the inner region from vertices
// beyond the annulus. Removed edges are uncolored in st and returned.
func cutModDepth(st *forest.State, sc *forest.Scratch, annulus []int32, inInner func(int32) bool, r int, src *rng.Source) []int32 {
	n := (r - 2) / 2
	if n < 1 {
		n = 1
	}
	colors := annulusColors(st, annulus)
	var removed []int32
	for _, c := range colors {
		trees := st.RootedTreesInColorWith(sc, c, annulus, inInner)
		for _, tr := range trees {
			j := int32(src.Intn(n))
			for i, v := range tr.Verts {
				_ = v
				d := tr.Depth[i]
				if d > 0 && d%int32(n) == j {
					id := tr.Parent[i]
					if st.Color(id) == c {
						st.SetColor(id, verify.Uncolored)
						removed = append(removed, id)
					}
				}
			}
		}
	}
	return removed
}

// annulusColors collects the colors present on edges incident to the
// annulus vertices, in deterministic order.
func annulusColors(st *forest.State, annulus []int32) []int32 {
	seen := make(map[int32]struct{})
	var out []int32
	for _, v := range annulus {
		for _, c := range st.ColorsAt(v) {
			if _, dup := seen[c]; !dup {
				seen[c] = struct{}{}
				out = append(out, c)
			}
		}
	}
	// ColorsAt's order is unspecified; sort for determinism.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// sampleCutState carries the global state of CutSampled across all CUT
// invocations: the fixed 3α-orientation J (as per-vertex out-edge lists)
// and the per-vertex load counters L(v).
type sampleCutState struct {
	outEdges [][]int32
	load     []int32
	loadCap  int32
	p        float64
}

// newSampleCutState prepares CutSampled over the given acyclic
// orientation out-edge lists.
func newSampleCutState(outEdges [][]int32, loadCap int, p float64) *sampleCutState {
	return &sampleCutState{
		outEdges: outEdges,
		load:     make([]int32, len(outEdges)),
		loadCap:  int32(loadCap),
		p:        p,
	}
}

// cut runs one CUT invocation over the annulus vertices: each underloaded
// vertex deletes one random colored out-edge with probability p. Removed
// edges are uncolored in st and returned. The leftover out-degree of any
// vertex never exceeds loadCap, so the leftover subgraph has
// pseudo-arboricity at most loadCap with probability one.
func (s *sampleCutState) cut(st *forest.State, annulus []int32, src *rng.Source) []int32 {
	var removed []int32
	for _, v := range annulus {
		if s.load[v] >= s.loadCap || !src.Bernoulli(s.p) {
			continue
		}
		// Collect the currently colored out-edges of v.
		var candidates []int32
		for _, id := range s.outEdges[v] {
			if st.Color(id) != verify.Uncolored {
				candidates = append(candidates, id)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		id := candidates[src.Intn(len(candidates))]
		st.SetColor(id, verify.Uncolored)
		removed = append(removed, id)
		s.load[v]++
	}
	return removed
}
