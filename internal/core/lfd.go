package core

import (
	"context"
	"fmt"
	"math"

	"nwforest/internal/dist"
	"nwforest/internal/graph"
	"nwforest/internal/orient"
	"nwforest/internal/verify"
)

// LFDOptions configures the list forest decomposition of Theorem 4.10.
type LFDOptions struct {
	// Palettes gives every edge its color list; sizes should be at least
	// ceil((1+Eps)*Alpha).
	Palettes [][]int32
	// Alpha is the globally known arboricity bound.
	Alpha int
	// Eps is the excess parameter.
	Eps float64
	// Seed drives all randomness.
	Seed uint64
	// Rule selects the CUT rule for the main phase.
	Rule CutRule
	// Workers bounds the parallel cluster phase (see Algo2Options.Workers;
	// results are bit-identical for every setting).
	Workers int
	// Checkpoint, when non-nil, collects anytime snapshots at every phase
	// cut. Snapshots completed from a mid-list run color their completion
	// edges with fresh colors outside the palettes: they are verified
	// forest decompositions but only palette-respecting on the edges the
	// interrupted run had colored.
	Checkpoint *Checkpointer
}

// LFDResult is a complete list forest decomposition.
type LFDResult struct {
	Colors []int32
	// ColorsUsed counts the distinct colors appearing (list colors are
	// arbitrary values, so there is no contiguous color count).
	ColorsUsed int
	// LeftoverEdges counts edges colored from the reserve palettes.
	LeftoverEdges int
	// Diameter is the maximum monochromatic tree diameter of the result.
	Diameter int
	Stats    Algo2Stats
}

// ListForestDecomposition computes a list forest decomposition using each
// edge's own palette (Theorem 4.10): split every vertex's colors into a
// main and a reserve side (Theorem 4.9), color the bulk by Algorithm 2
// over the main palettes, and finish the leftover with the reserve
// palettes via the (4+eps)-LSFD of Theorem 2.3. Proposition 4.8 glues the
// two colorings: a color class never mixes main and reserve edges at any
// vertex, so the union stays a forest per color.
func ListForestDecomposition(ctx context.Context, g *graph.Graph, opts LFDOptions, cost *dist.Cost) (*LFDResult, error) {
	if opts.Alpha < 1 {
		return nil, fmt.Errorf("core: Alpha must be >= 1, got %d", opts.Alpha)
	}
	if opts.Eps <= 0 || opts.Eps > 1 {
		return nil, fmt.Errorf("core: Eps must be in (0,1], got %v", opts.Eps)
	}
	if len(opts.Palettes) != g.M() {
		return nil, fmt.Errorf("core: %d palettes for %d edges", len(opts.Palettes), g.M())
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		res, err := listFDOnce(ctx, g, opts, opts.Seed+uint64(attempt)*1000003, cost)
		if err == nil {
			return res, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		lastErr = err
	}
	return nil, fmt.Errorf("core: all %d attempts failed: %w", attempts, lastErr)
}

func listFDOnce(ctx context.Context, g *graph.Graph, opts LFDOptions, seed uint64, cost *dist.Cost) (*LFDResult, error) {
	if g.M() == 0 {
		return &LFDResult{Colors: []int32{}}, nil
	}
	split, err := SplitColors(ctx, g, opts.Palettes, SplitOptions{
		Eps:   opts.Eps,
		Alpha: opts.Alpha,
		Seed:  seed + 17,
	}, cost)
	if err != nil {
		return nil, err
	}
	q0 := split.InducedPalettes(g, opts.Palettes, 0)
	q1 := split.InducedPalettes(g, opts.Palettes, 1)

	a2, err := RunAlgorithm2(ctx, g, Algo2Options{
		Palettes:   q0,
		Alpha:      opts.Alpha,
		Eps:        opts.Eps,
		Rule:       opts.Rule,
		Seed:       seed + 29,
		Workers:    opts.Workers,
		Checkpoint: opts.Checkpoint,
	}, cost)
	if err != nil {
		return nil, err
	}
	colors := a2.State.Colors()
	res := &LFDResult{Colors: colors, LeftoverEdges: len(a2.Leftover), Stats: a2.Stats}
	if len(a2.Leftover) > 0 {
		// Without a leftover the final check alone covers Algorithm 2's
		// coloring; either check failing retries upstream.
		if err := verify.PartialForestDecomposition(g, colors, 1<<30); err != nil {
			return nil, fmt.Errorf("core: list augmentation phase invalid: %w", err)
		}
		// Recolor the leftover with the reserve palettes via Theorem 2.3.
		sub, emap := g.SubgraphOfEdges(a2.Leftover)
		subPalettes := make([][]int32, sub.M())
		for subID := range subPalettes {
			subPalettes[subID] = q1[emap[subID]]
		}
		// The leftover pseudo-arboricity is bounded by the CUT rule's load
		// target; measure it exactly on the (small) leftover subgraph to
		// pick the LSFD threshold.
		alphaStarLeft := orient.PseudoArboricity(sub)
		if alphaStarLeft < 1 {
			alphaStarLeft = 1
		}
		cost.Charge(int(math.Ceil(math.Log2(float64(g.N()+2)))), "core/leftover-measure")
		subColors, err := ListStarForest24(ctx, sub, subPalettes, alphaStarLeft, opts.Eps, cost)
		if err != nil {
			return nil, fmt.Errorf("core: leftover LSFD: %w", err)
		}
		for subID, c := range subColors {
			colors[emap[subID]] = c
		}
	}
	if opts.Checkpoint != nil {
		opts.Checkpoint.Offer(colors, "leftover")
	}
	if err := verify.RespectsPalettes(colors, opts.Palettes); err != nil {
		return nil, fmt.Errorf("core: list decomposition violates palettes: %w", err)
	}
	if res.Diameter, err = verify.Forests(g, colors, 1<<30); err != nil {
		return nil, fmt.Errorf("core: combined list decomposition invalid: %w", err)
	}
	res.ColorsUsed = verify.ColorsUsed(colors)
	return res, nil
}
