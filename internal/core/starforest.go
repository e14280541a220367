package core

import (
	"context"
	"fmt"
	"math"

	"nwforest/internal/dist"
	"nwforest/internal/graph"
	"nwforest/internal/hpartition"
	"nwforest/internal/lll"
	"nwforest/internal/matching"
	"nwforest/internal/orient"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

// SFDOptions configures the star-forest decompositions of Section 5.
type SFDOptions struct {
	// Alpha is a globally known arboricity bound (required).
	Alpha int
	// Eps is the excess parameter.
	Eps float64
	// Seed drives all randomness.
	Seed uint64
	// Palettes, when non-nil, switches to the list variant (Lemma 5.3 /
	// Theorem 5.4(2)); every palette should have ~(1+Eps)*Alpha + slack
	// colors. When nil, the plain variant (Lemma 5.2) uses the shared
	// color space {0..t-1}.
	Palettes [][]int32
	// SelectProb overrides Lemma 5.3's per-color selection probability
	// 1-eps for the list variant (0 = auto).
	SelectProb float64
}

// SFDResult is a star-forest decomposition.
type SFDResult struct {
	Colors []int32
	// NumColors counts total star forests (main + leftover recoloring).
	NumColors int
	// MainColors is t = ceil((1+eps)*alpha).
	MainColors int
	// LeftoverEdges counts out-edges that missed their matching and were
	// recolored with reserve colors (always 0 for the list variant).
	LeftoverEdges int
	// LLLIters is the number of resampling iterations used.
	LLLIters int
	// Diameter is the maximum monochromatic tree diameter of the result.
	Diameter int
}

// StarForestDecomposition computes a (1+O(eps))*alpha star-forest
// decomposition of a simple graph (Theorem 5.4). Every vertex samples a
// color set C(v); the bipartite graph H_v between colors and out-neighbors
// is matched (Proposition 5.1); vertices whose matching is too small are
// resampled via the LLL; unmatched edges are recolored with reserve
// colors via Theorem 2.1(3).
//
// The t-orientation substrate is the exact path-reversal orienter with the
// SV19a round bound charged (see DESIGN.md, substitutions).
func StarForestDecomposition(ctx context.Context, g *graph.Graph, opts SFDOptions, cost *dist.Cost) (*SFDResult, error) {
	if opts.Alpha < 1 {
		return nil, fmt.Errorf("core: Alpha must be >= 1, got %d", opts.Alpha)
	}
	if opts.Eps <= 0 || opts.Eps > 1 {
		return nil, fmt.Errorf("core: Eps must be in (0,1], got %v", opts.Eps)
	}
	t := int(math.Ceil((1 + opts.Eps) * float64(opts.Alpha)))
	if t <= opts.Alpha {
		t = opts.Alpha + 1
	}

	// t-orientation: exact centralized min-max orientation, charged at the
	// SV19a CONGEST bound O~(log^2 n / eps^2).
	o, alphaStar := orient.MinMax(g)
	if alphaStar > t {
		return nil, fmt.Errorf("core: graph has pseudo-arboricity %d > t=%d; Alpha bound too small", alphaStar, t)
	}
	logN := math.Log2(float64(g.N() + 2))
	cost.Charge(int(math.Ceil(logN*logN/(opts.Eps*opts.Eps))), "core/sfd-orientation")

	outs := hpartition.OutEdges(g, o)
	list := opts.Palettes != nil
	src := rng.New(opts.Seed)

	// C(v) sampling per Lemma 5.2 (uniform alpha-subset of [t]) or Lemma
	// 5.3 (each color kept with probability 1-eps).
	colorSets := make([]map[int32]struct{}, g.N())
	drawCount := make([]int, g.N())
	draw := func(v int32) {
		drawCount[v]++
		vs := src.Split(uint64(v)*0x9e3779b9 + uint64(drawCount[v])<<40)
		set := make(map[int32]struct{})
		if list {
			p := opts.SelectProb
			if p == 0 {
				p = 1 - opts.Eps
			}
			for c := int32(0); c < int32(t); c++ {
				if vs.Bernoulli(p) {
					set[c] = struct{}{}
				}
			}
			// List palettes may mention colors beyond [0,t); include them
			// with the same probability.
			for _, id := range outs[v] {
				for _, c := range opts.Palettes[id] {
					if c >= int32(t) {
						if _, seen := set[c]; !seen && vs.Split(uint64(c)).Bernoulli(p) {
							set[c] = struct{}{}
						}
					}
				}
			}
		} else {
			for _, c := range vs.Sample(t, opts.Alpha) {
				set[int32(c)] = struct{}{}
			}
		}
		colorSets[v] = set
	}
	for v := int32(0); int(v) < g.N(); v++ {
		draw(v)
	}

	// The matching target: perfect for lists (Lemma 5.3), deficiency
	// 2*eps*alpha for plain (Lemma 5.2).
	deficiency := 0
	if !list {
		deficiency = int(math.Ceil(2 * opts.Eps * float64(opts.Alpha)))
	}
	matchOf := make([][]int32, g.N()) // per vertex: color matched to each out-edge index (-1 = none)

	// computeMatching fills matchOf[v] and returns the deficiency.
	computeMatching := func(v int32) int {
		ids := outs[v]
		if len(ids) == 0 {
			matchOf[v] = nil
			return 0
		}
		// Left nodes: candidate colors (C(v), plus palette colors for the
		// list variant); right nodes: out-edges.
		candidates := make([]int32, 0, len(colorSets[v]))
		for c := range colorSets[v] {
			candidates = append(candidates, c)
		}
		sortInt32(candidates)
		index := make(map[int32]int, len(candidates))
		for i, c := range candidates {
			index[c] = i
		}
		b := matching.NewBipartite(len(candidates), len(ids))
		for ri, id := range ids {
			head := o.Head(g, id)
			allowed := func(c int32) bool {
				if _, inHead := colorSets[head][c]; inHead {
					return false // c must be in C(v) \ C(head)
				}
				return true
			}
			if list {
				for _, c := range opts.Palettes[id] {
					if _, inV := colorSets[v][c]; inV && allowed(c) {
						b.AddEdge(index[c], ri)
					}
				}
			} else {
				for _, c := range candidates {
					if allowed(c) {
						b.AddEdge(index[c], ri)
					}
				}
			}
		}
		_, matchR, size := b.MaxMatching()
		assign := make([]int32, len(ids))
		for ri := range assign {
			assign[ri] = verify.Uncolored
		}
		for ri := range ids {
			if l := matchR[ri]; l >= 0 {
				assign[ri] = candidates[l]
			}
		}
		matchOf[v] = assign
		return len(ids) - size
	}
	for v := int32(0); int(v) < g.N(); v++ {
		computeMatching(v)
	}

	// LLL repair: bad event at v = deficiency above target. Variables are
	// the color sets of v and its out-neighborhood heads.
	inst := lll.Instance{
		NumEvents: g.N(),
		Vars: func(i int) []int32 {
			v := int32(i)
			vars := []int32{v}
			for _, id := range outs[v] {
				vars = append(vars, o.Head(g, id))
			}
			return vars
		},
		Bad: func(i int) bool {
			// Recompute against the current color sets (neighbors may have
			// been resampled since the last evaluation).
			return computeMatching(int32(i)) > deficiency
		},
		Resample:    func(v int32) { draw(v) },
		EventRadius: 2,
	}
	iters, err := lll.Solve(ctx, inst, 60*int(logN)+200, cost)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("core: SFD LLL did not converge: %w", err)
	}

	// Proposition 5.1: matched out-edges take their matched color.
	colors := make([]int32, g.M())
	for i := range colors {
		colors[i] = verify.Uncolored
	}
	var leftover []int32
	for v := int32(0); int(v) < g.N(); v++ {
		// Refresh after the final resampling state.
		computeMatching(v)
		for ri, id := range outs[v] {
			if c := matchOf[v][ri]; c != verify.Uncolored {
				colors[id] = c
			} else {
				leftover = append(leftover, id)
			}
		}
	}
	cost.Charge(1, "core/sfd-color")

	res := &SFDResult{Colors: colors, MainColors: t, LeftoverEdges: len(leftover), LLLIters: iters}
	res.NumColors = t
	if len(leftover) > 0 {
		// The leftover has pseudo-arboricity <= deficiency (every vertex
		// kept at most `deficiency` unmatched out-edges); recolor it as
		// star forests with fresh colors (Theorem 2.1(3)). The measured
		// pseudo-arboricity of the (typically tiny) leftover picks the
		// peeling threshold, charged like the orientation substrate.
		sub, emap := g.SubgraphOfEdges(leftover)
		alphaLeft := orient.PseudoArboricity(sub)
		cost.Charge(int(math.Ceil(logN)), "core/sfd-leftover-measure")
		t2 := int(math.Ceil(2.5 * float64(max(1, alphaLeft))))
		if _, err := peelRecolor(ctx, sub, emap, colors, int32(t), t2, opts.Alpha, hpartition.StarForestDecomposition, cost); err != nil {
			return nil, fmt.Errorf("core: SFD leftover recoloring: %w", err)
		}
	}
	// Report the colors actually used (list palettes may exceed [0, t)).
	if mc := verify.MaxColor(colors); int(mc)+1 > res.NumColors {
		res.NumColors = int(mc) + 1
	}
	if res.Diameter, err = verify.StarForests(g, colors, res.NumColors); err != nil {
		return nil, fmt.Errorf("core: SFD output invalid: %w", err)
	}
	if opts.Palettes != nil {
		if err := verify.RespectsPalettes(colors, opts.Palettes); err != nil {
			return nil, fmt.Errorf("core: SFD violates palettes: %w", err)
		}
	}
	return res, nil
}
