package core

import (
	"context"
	"fmt"
	"math"

	"nwforest/internal/dist"
	"nwforest/internal/graph"
	"nwforest/internal/hpartition"
	"nwforest/internal/verify"
)

// FDOptions configures the end-to-end (1+eps)·alpha forest decomposition
// (Theorem 4.6).
type FDOptions struct {
	// Alpha is a globally known upper bound on the arboricity (required).
	Alpha int
	// Eps is the excess parameter; the decomposition targets
	// (1+eps)*Alpha + O(1) forests.
	Eps float64
	// Rule selects the CUT rule (default CutModDepth; use CutSampled for
	// the alpha = O(1) regime of Theorem 4.2(3)/(4)).
	Rule CutRule
	// Seed drives all randomness.
	Seed uint64
	// ReduceDiameter additionally caps every tree's diameter at O(1/eps)
	// (Corollary 2.5), spending up to ceil(eps*Alpha)+O(1) more colors.
	ReduceDiameter bool
	// Retries bounds how many fresh seeds are tried when a randomized CUT
	// rule fails goodness (default 3).
	Retries int
	// RPrime and R override the radii (0 = auto).
	RPrime, R int
	// Workers bounds the parallel cluster phase (see Algo2Options.Workers;
	// results are bit-identical for every setting).
	Workers int
	// PhaseNs, when non-nil, receives Algorithm 2 phase timings of the
	// final attempt (benchmark instrumentation).
	PhaseNs *Algo2PhaseNs
	// Checkpoint, when non-nil, collects anytime snapshots at every phase
	// cut (Algorithm 2 classes and the post-leftover coloring); it has no
	// effect on the run's result. Retried attempts keep offering into the
	// same Checkpointer, so its best snapshot only improves.
	Checkpoint *Checkpointer
}

// FDResult is a complete forest decomposition.
type FDResult struct {
	// Colors assigns every edge a color in [0, NumColors).
	Colors []int32
	// NumColors is the total number of forests used.
	NumColors int
	// MainColors is the number of colors used by the augmentation phase;
	// colors >= MainColors were spent on the leftover and on diameter
	// reduction.
	MainColors int
	// LeftoverEdges counts edges recolored with reserve colors.
	LeftoverEdges int
	// Diameter is the maximum monochromatic tree diameter of the result.
	Diameter int
	// Stats carries the Algorithm 2 instrumentation of the final attempt.
	Stats Algo2Stats
}

// ForestDecomposition computes a (1+eps)·alpha + O(1) forest decomposition
// of g (Theorem 4.6): Algorithm 2 colors almost all edges with
// ceil((1+eps/2)·alpha) colors, and the leftover (whose pseudo-arboricity
// the CUT rules bound by O(eps·alpha)) is recolored with reserve colors by
// the H-partition. Rounds are charged to cost.
//
// ctx is observed at phase boundaries and inside the phase loops (per
// simulated round, per Algorithm 2 cluster); cancellation aborts the run
// promptly with ctx.Err() instead of burning the retry budget.
func ForestDecomposition(ctx context.Context, g *graph.Graph, opts FDOptions, cost *dist.Cost) (*FDResult, error) {
	if opts.Alpha < 1 {
		return nil, fmt.Errorf("core: Alpha must be >= 1, got %d", opts.Alpha)
	}
	if opts.Eps <= 0 || opts.Eps > 1 {
		return nil, fmt.Errorf("core: Eps must be in (0, 1], got %v", opts.Eps)
	}
	retries := opts.Retries
	if retries == 0 {
		retries = 3
	}
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		res, err := forestDecompositionOnce(ctx, g, opts, opts.Seed+uint64(attempt), cost)
		if err == nil {
			return res, nil
		}
		// A canceled attempt is the caller giving up, not a failed random
		// seed: do not retry it away.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		lastErr = err
	}
	return nil, fmt.Errorf("core: all %d attempts failed: %w", retries, lastErr)
}

func forestDecompositionOnce(ctx context.Context, g *graph.Graph, opts FDOptions, seed uint64, cost *dist.Cost) (*FDResult, error) {
	k := int(math.Ceil((1 + opts.Eps/2) * float64(opts.Alpha)))
	if k < opts.Alpha+1 {
		k = opts.Alpha + 1
	}
	a2, err := RunAlgorithm2(ctx, g, Algo2Options{
		Palettes:   fullPalette(g.M(), k),
		Alpha:      opts.Alpha,
		Eps:        opts.Eps,
		Rule:       opts.Rule,
		Seed:       seed,
		RPrime:     opts.RPrime,
		R:          opts.R,
		Workers:    opts.Workers,
		PhaseNs:    opts.PhaseNs,
		Checkpoint: opts.Checkpoint,
	}, cost)
	if err != nil {
		return nil, err
	}
	colors := a2.State.Colors()
	if err := verify.PartialForestDecomposition(g, colors, k); err != nil {
		// Only a failed randomized CUT can cause this; retry upstream.
		return nil, fmt.Errorf("core: augmentation phase produced invalid coloring: %w", err)
	}

	res := &FDResult{
		Colors:        colors,
		MainColors:    k,
		LeftoverEdges: len(a2.Leftover),
		Stats:         a2.Stats,
	}
	// Recolor the leftover with reserve colors k, k+1, ...
	extra, err := recolorLeftover(ctx, g, colors, a2.Leftover, k, opts, cost)
	if err != nil {
		return nil, err
	}
	res.NumColors = k + extra
	if opts.Checkpoint != nil {
		// The leftover is colored: this snapshot is the complete
		// (pre-diameter-reduction) decomposition, so a deadline firing
		// during CutDepth still serves a full-quality coloring.
		opts.Checkpoint.Offer(res.Colors, "leftover")
	}

	if opts.ReduceDiameter {
		z := int(math.Ceil(4 / opts.Eps))
		newColors, extra2, err := CutDepth(ctx, g, res.Colors, res.NumColors, z, opts.Alpha, opts.Eps, seed+101, cost)
		if err != nil {
			return nil, err
		}
		res.Colors = newColors
		res.NumColors += extra2
	}
	if res.Diameter, err = verify.Forests(g, res.Colors, res.NumColors); err != nil {
		return nil, fmt.Errorf("core: final decomposition invalid: %w", err)
	}
	return res, nil
}

// recolorLeftover colors the given edges with fresh colors offset, offset+1,
// ... using the H-partition forest decomposition; it returns the number of
// extra colors used. The threshold starts at the Theorem 4.2 leftover
// bound ~eps*alpha and doubles on failure (always succeeding by 3*alpha,
// since the leftover is a subgraph of g).
func recolorLeftover(ctx context.Context, g *graph.Graph, colors []int32, leftover []int32, offset int, opts FDOptions, cost *dist.Cost) (int, error) {
	if len(leftover) == 0 {
		return 0, nil
	}
	sub, emap := g.SubgraphOfEdges(leftover)
	t2 := int(math.Ceil(opts.Eps * float64(opts.Alpha)))
	if t2 < 2 {
		t2 = 2
	}
	for {
		hp, err := hpartition.Partition(ctx, sub, t2, 8*sub.N()+16, cost)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return 0, ctxErr
			}
			if t2 > 3*opts.Alpha+4 {
				return 0, fmt.Errorf("core: leftover recoloring failed even at t=%d: %w", t2, err)
			}
			t2 *= 2
			continue
		}
		subColors, err := hpartition.ForestDecomposition(sub, hp, cost)
		if err != nil {
			return 0, err
		}
		for subID, c := range subColors {
			colors[emap[subID]] = int32(offset) + c
		}
		return t2, nil
	}
}

// fullPalette builds m copies of the palette {0..k-1} sharing one backing
// slice.
func fullPalette(m, k int) [][]int32 {
	pal := make([]int32, k)
	for i := range pal {
		pal[i] = int32(i)
	}
	out := make([][]int32, m)
	for i := range out {
		out[i] = pal
	}
	return out
}
