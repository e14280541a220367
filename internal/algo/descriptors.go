package algo

import (
	"context"
	"fmt"
	"math"

	"nwforest/internal/core"
	"nwforest/internal/dist"
	"nwforest/internal/exact"
	"nwforest/internal/graph"
	"nwforest/internal/hpartition"
	"nwforest/internal/orient"
	"nwforest/internal/verify"
)

// rule maps the Sampled flag to the core CUT rule.
func (o Options) rule() core.CutRule {
	if o.Sampled {
		return core.CutSampled
	}
	return core.CutModDepth
}

// FullPalettes builds m palettes all equal to {0..k-1} (see
// core.FullPalettes).
func FullPalettes(m, k int) [][]int32 { return core.FullPalettes(m, k) }

// listPaletteSize is the palette size "list" runs with (Theorem 4.10
// needs ceil((1+eps)*alpha) colors per palette).
func listPaletteSize(req Request) int {
	if req.PaletteSize != 0 {
		return req.PaletteSize
	}
	return int(math.Ceil((1 + req.Options.Eps) * float64(req.Options.Alpha)))
}

// starsList24PaletteSize is the palette size "stars-list24" runs with
// (Theorem 2.3's floor((4+eps)*alphaStar) - 1).
func starsList24PaletteSize(req Request) int {
	if req.PaletteSize != 0 {
		return req.PaletteSize
	}
	return int(math.Floor((4+req.Options.Eps)*float64(req.AlphaStar))) - 1
}

// beAlphaStar is the arboricity bound "be" runs with.
func beAlphaStar(req Request) int {
	if req.AlphaStar != 0 {
		return req.AlphaStar
	}
	return req.Options.Alpha
}

// palettes materializes the run's palettes: the explicit ones when the
// caller supplied them, uniform {0..k-1} palettes otherwise. k is the
// normalized PaletteSize.
func (req Request) palettes(m int) ([][]int32, error) {
	if req.Palettes != nil {
		if len(req.Palettes) != m {
			return nil, fmt.Errorf("algo: %s got %d palettes for %d edges", req.Algorithm, len(req.Palettes), m)
		}
		return req.Palettes, nil
	}
	if req.PaletteSize < 1 {
		return nil, fmt.Errorf("algo: %s needs a palette of at least 1 color, got %d", req.Algorithm, req.PaletteSize)
	}
	return FullPalettes(m, req.PaletteSize), nil
}

// anytimeTarget is the color budget a complete (1+eps)alpha run aims
// for; partial results report their quality bound against it.
func anytimeTarget(o Options) int {
	return int(math.Ceil((1+o.Eps)*float64(o.Alpha))) + 1
}

// anytimeObserver, when non-nil, is installed on every Checkpointer an
// anytime run creates (test hook for the checkpoint property tests).
var anytimeObserver func(phase string, colors []int32, used, bestUsed int)

// newCheckpointer builds the run's Checkpointer when req asks for
// anytime mode, nil otherwise (a nil Checkpointer is inert in core).
func newCheckpointer(g *graph.Graph, req Request, target int) *core.Checkpointer {
	if !req.Anytime {
		return nil
	}
	cp := core.NewCheckpointer(g, target)
	cp.Observer = anytimeObserver
	return cp
}

// anytimeBest returns the best checkpoint of a deadline-interrupted run:
// ok only when the run failed because ctx expired AND a valid checkpoint
// was retained (so a pre-cancellation or checkpoint-free failure still
// surfaces as the original error).
func anytimeBest(ctx context.Context, cp *core.Checkpointer) (colors []int32, used, k int, ok bool) {
	if cp == nil || ctx.Err() == nil {
		return nil, 0, 0, false
	}
	return cp.Best()
}

// partialInfo stamps a served checkpoint's quality bound.
func partialInfo(cp *core.Checkpointer, used int) *AnytimeInfo {
	return &AnytimeInfo{
		Partial:     true,
		ColorsUsed:  used,
		Target:      cp.Target(),
		Checkpoints: cp.Checkpoints(),
		Phase:       cp.BestPhase(),
	}
}

// decomposition assembles the common Decomposition fields from a
// coloring and the accumulated cost.
func decomposition(colors []int32, numForests, diameter int, cost *dist.Cost) *Decomposition {
	return &Decomposition{
		Colors:     colors,
		NumForests: numForests,
		Diameter:   diameter,
		Rounds:     cost.Rounds(),
		Phases:     cost.Breakdown(),
	}
}

func init() {
	Register(Descriptor{
		Name:     "decompose",
		Summary:  "(1+eps)alpha forest decomposition (Theorem 4.6)",
		Required: []string{"options.alpha", "options.eps"},
		Caps: Capabilities{
			NeedsAlpha: true, NeedsEps: true, UsesSeed: true,
			Incremental: true, Anytime: true, Output: OutputDecomposition,
		},
		Normalize: func(req Request) Request { // full Options; no alphaStar/palette
			req.AlphaStar, req.PaletteSize = 0, 0
			return req
		},
		Run: func(ctx context.Context, g *graph.Graph, req Request, cost *dist.Cost) (*Result, error) {
			opts := req.Options
			cp := newCheckpointer(g, req, anytimeTarget(opts))
			res, err := core.ForestDecomposition(ctx, g, core.FDOptions{
				Alpha:          opts.Alpha,
				Eps:            opts.Eps,
				Seed:           opts.Seed,
				Rule:           opts.rule(),
				ReduceDiameter: opts.ReduceDiameter,
				Checkpoint:     cp,
			}, cost)
			if err != nil {
				if colors, used, k, ok := anytimeBest(ctx, cp); ok {
					d := decomposition(colors, k, verify.MaxForestDiameter(g, colors), cost)
					return &Result{Decomposition: d, Anytime: partialInfo(cp, used)}, nil
				}
				return nil, err
			}
			// core verifies the final decomposition itself; no re-check.
			d := decomposition(res.Colors, res.NumColors, res.Diameter, cost)
			d.LeftoverEdges = res.LeftoverEdges
			return &Result{Decomposition: d}, nil
		},
	})

	Register(Descriptor{
		Name:     "list",
		Summary:  "list forest decomposition, each edge coloring from its own palette (Theorem 4.10)",
		Required: []string{"options.alpha", "options.eps"},
		Caps: Capabilities{
			NeedsAlpha: true, NeedsEps: true, UsesSeed: true,
			UsesPalettes: true, Anytime: true, Output: OutputDecomposition,
		},
		Normalize: func(req Request) Request { // Options minus ReduceDiameter; palette defaulted
			req.AlphaStar = 0
			req.PaletteSize = listPaletteSize(req)
			req.Options.ReduceDiameter = false
			return req
		},
		Run: func(ctx context.Context, g *graph.Graph, req Request, cost *dist.Cost) (*Result, error) {
			palettes, err := req.palettes(g.M())
			if err != nil {
				return nil, err
			}
			opts := req.Options
			// A mid-list checkpoint completes with colors outside the
			// palettes: partial list results are forest-valid but only
			// palette-respecting where the interrupted run had colored.
			cp := newCheckpointer(g, req, req.PaletteSize)
			res, err := core.ListForestDecomposition(ctx, g, core.LFDOptions{
				Palettes:   palettes,
				Alpha:      opts.Alpha,
				Eps:        opts.Eps,
				Seed:       opts.Seed,
				Rule:       opts.rule(),
				Checkpoint: cp,
			}, cost)
			if err != nil {
				if colors, used, _, ok := anytimeBest(ctx, cp); ok {
					d := decomposition(colors, used, verify.MaxForestDiameter(g, colors), cost)
					return &Result{Decomposition: d, Anytime: partialInfo(cp, used)}, nil
				}
				return nil, err
			}
			// core verifies forest-ness and palette respect; with uniform
			// palettes [0, k) that subsumes the color-range check.
			d := decomposition(res.Colors, res.ColorsUsed, verify.MaxForestDiameter(g, res.Colors), cost)
			d.LeftoverEdges = res.LeftoverEdges
			return &Result{Decomposition: d}, nil
		},
	})

	Register(Descriptor{
		Name:     "stars",
		Summary:  "star-forest decomposition of simple graphs (Theorem 5.4), optionally with lists",
		Required: []string{"options.alpha", "options.eps"},
		Caps: Capabilities{
			NeedsAlpha: true, NeedsEps: true, UsesSeed: true,
			Output: OutputDecomposition,
		},
		Normalize: func(req Request) Request { // Alpha/Eps/Seed only
			req.AlphaStar, req.PaletteSize = 0, 0
			req.Options.ReduceDiameter, req.Options.Sampled = false, false
			return req
		},
		Run: func(ctx context.Context, g *graph.Graph, req Request, cost *dist.Cost) (*Result, error) {
			opts := req.Options
			res, err := core.StarForestDecomposition(ctx, g, core.SFDOptions{
				Alpha:    opts.Alpha,
				Eps:      opts.Eps,
				Seed:     opts.Seed,
				Palettes: req.Palettes,
			}, cost)
			if err != nil {
				return nil, err
			}
			// core verifies the star decomposition itself; no re-check.
			return &Result{Decomposition: decomposition(res.Colors, res.NumColors, verify.MaxForestDiameter(g, res.Colors), cost)}, nil
		},
	})

	Register(Descriptor{
		Name:     "stars-list24",
		Summary:  "(4+eps)alpha* list star-forest decomposition of multigraphs (Theorem 2.3)",
		Required: []string{"alphaStar", "options.eps"},
		Caps: Capabilities{
			NeedsEps: true, UsesAlphaStar: true, UsesPalettes: true,
			Output: OutputDecomposition,
		},
		Normalize: func(req Request) Request { // AlphaStar/Eps; palette defaulted
			req.PaletteSize = starsList24PaletteSize(req)
			req.Options = Options{Eps: req.Options.Eps}
			return req
		},
		Validate: func(req Request) error {
			if req.AlphaStar < 1 {
				return fmt.Errorf("algo: stars-list24 requires alphaStar >= 1")
			}
			return nil
		},
		Run: func(ctx context.Context, g *graph.Graph, req Request, cost *dist.Cost) (*Result, error) {
			palettes, err := req.palettes(g.M())
			if err != nil {
				return nil, err
			}
			colors, err := core.ListStarForest24(ctx, g, palettes, req.AlphaStar, req.Options.Eps, cost)
			if err != nil {
				return nil, err
			}
			// ListStarForest24 does not verify internally; check here
			// against the color space actually in play (the palette size
			// for uniform palettes, the max color for explicit lists).
			k := req.PaletteSize
			if req.Palettes != nil {
				k = int(verify.MaxColor(colors)) + 1
			}
			if err := verify.StarForestDecomposition(g, colors, k); err != nil {
				return nil, fmt.Errorf("algo: result failed verification: %w", err)
			}
			return &Result{Decomposition: decomposition(colors, verify.ColorsUsed(colors), verify.MaxForestDiameter(g, colors), cost)}, nil
		},
	})

	Register(Descriptor{
		Name:     "be",
		Summary:  "Barenboim-Elkin (2+eps)alpha baseline via the H-partition (Theorem 2.1)",
		Required: []string{"alphaStar|options.alpha", "options.eps"},
		Caps: Capabilities{
			NeedsEps: true, UsesAlphaStar: true, Output: OutputDecomposition,
		},
		Normalize: func(req Request) Request { // AlphaStar (defaulted from Alpha) and Eps
			req.AlphaStar = beAlphaStar(req)
			req.PaletteSize = 0
			req.Options = Options{Eps: req.Options.Eps}
			return req
		},
		Validate: func(req Request) error {
			if req.AlphaStar < 1 && req.Options.Alpha < 1 {
				return fmt.Errorf("algo: be requires alphaStar (or options.alpha) >= 1")
			}
			return nil
		},
		Run: func(ctx context.Context, g *graph.Graph, req Request, cost *dist.Cost) (*Result, error) {
			t := hpartition.Threshold(req.AlphaStar, req.Options.Eps)
			hp, err := hpartition.Partition(ctx, g, t, 16*g.N()+64, cost)
			if err != nil {
				return nil, err
			}
			colors, err := hpartition.ForestDecomposition(g, hp, cost)
			if err != nil {
				return nil, err
			}
			used := int(verify.MaxColor(colors)) + 1
			diam, err := verify.Forests(g, colors, used)
			if err != nil {
				return nil, fmt.Errorf("algo: result failed verification: %w", err)
			}
			return &Result{Decomposition: decomposition(colors, used, diam, cost)}, nil
		},
	})

	Register(Descriptor{
		Name:     "pseudo",
		Summary:  "(1+eps)alpha pseudo-forest decomposition via the orientation of Corollary 1.1",
		Required: []string{"options.alpha", "options.eps"},
		Caps: Capabilities{
			NeedsAlpha: true, NeedsEps: true, UsesSeed: true,
			Anytime: true, Output: OutputDecomposition,
		},
		Normalize: func(req Request) Request { // Alpha/Eps/Seed/Sampled; diameter forced on
			req.AlphaStar, req.PaletteSize = 0, 0
			req.Options.ReduceDiameter = false
			return req
		},
		Run: func(ctx context.Context, g *graph.Graph, req Request, cost *dist.Cost) (*Result, error) {
			cp := newCheckpointer(g, req, anytimeTarget(req.Options))
			o, partial, err := orientViaDecomposition(ctx, g, req.Options, cp, cost)
			if err != nil {
				return nil, err
			}
			colors := orient.PseudoForestDecomposition(g, o)
			used := int(verify.MaxColor(colors)) + 1
			if err := verify.PseudoForestDecomposition(g, colors, used); err != nil {
				return nil, fmt.Errorf("algo: result failed verification: %w", err)
			}
			// Pseudo-forests are not trees; diameter is not defined.
			return &Result{Decomposition: decomposition(colors, used, -1, cost), Anytime: partial}, nil
		},
	})

	Register(Descriptor{
		Name:     "orient",
		Summary:  "(1+eps)alpha orientation via decompose-then-root (Corollary 1.1)",
		Required: []string{"options.alpha", "options.eps"},
		Caps: Capabilities{
			NeedsAlpha: true, NeedsEps: true, UsesSeed: true,
			Anytime: true, Output: OutputOrientation,
		},
		Normalize: func(req Request) Request { // Alpha/Eps/Seed/Sampled; diameter forced on
			req.AlphaStar, req.PaletteSize = 0, 0
			req.Options.ReduceDiameter = false
			return req
		},
		Run: func(ctx context.Context, g *graph.Graph, req Request, cost *dist.Cost) (*Result, error) {
			cp := newCheckpointer(g, req, anytimeTarget(req.Options))
			o, partial, err := orientViaDecomposition(ctx, g, req.Options, cp, cost)
			if err != nil {
				return nil, err
			}
			return &Result{Orientation: &Orientation{
				FromU:        o.FromU,
				MaxOutDegree: verify.MaxOutDegree(g, o),
				Rounds:       cost.Rounds(),
				Phases:       cost.Breakdown(),
			}, Anytime: partial}, nil
		},
	})

	Register(Descriptor{
		Name:    "estimate-alpha",
		Summary: "distributed arboricity upper bound by peeling with doubling thresholds",
		Caps:    Capabilities{Output: OutputScalar},
		Normalize: func(req Request) Request { // parameterless
			req.AlphaStar, req.PaletteSize = 0, 0
			req.Options = Options{}
			return req
		},
		Run: func(ctx context.Context, g *graph.Graph, req Request, cost *dist.Cost) (*Result, error) {
			est, err := hpartition.EstimateDegeneracy(ctx, g, cost)
			if err != nil {
				return nil, err
			}
			return &Result{Alpha: est, Rounds: cost.Rounds(), Phases: cost.Breakdown()}, nil
		},
	})

	Register(Descriptor{
		Name:    "arboricity",
		Summary: "exact arboricity with a witnessing optimal decomposition (Gabow-Westermann, centralized)",
		Caps:    Capabilities{Output: OutputScalar},
		Normalize: func(req Request) Request { // parameterless
			req.AlphaStar, req.PaletteSize = 0, 0
			req.Options = Options{}
			return req
		},
		Run: func(ctx context.Context, g *graph.Graph, req Request, cost *dist.Cost) (*Result, error) {
			// Centralized reference: not preemptible mid-run, but honor an
			// already-expired context instead of starting the work.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			alpha, colors := exact.Arboricity(g)
			return &Result{Alpha: alpha, Decomposition: &Decomposition{
				Colors:     colors,
				NumForests: alpha,
				Diameter:   verify.MaxForestDiameter(g, colors),
			}}, nil
		},
	})
}

// orientViaDecomposition is the shared decompose-then-root step of
// "orient" and "pseudo": a diameter-reduced forest decomposition (rooting
// costs O(diameter) rounds) oriented toward the tree roots. When cp is
// non-nil and the deadline fires mid-decomposition, the best checkpoint
// is rooted instead (rooting itself never observes ctx) and the returned
// AnytimeInfo qualifies the result as partial.
func orientViaDecomposition(ctx context.Context, g *graph.Graph, opts Options, cp *core.Checkpointer, cost *dist.Cost) (*verify.Orientation, *AnytimeInfo, error) {
	res, err := core.ForestDecomposition(ctx, g, core.FDOptions{
		Alpha:          opts.Alpha,
		Eps:            opts.Eps,
		Seed:           opts.Seed,
		Rule:           opts.rule(),
		ReduceDiameter: true,
		Checkpoint:     cp,
	}, cost)
	if err != nil {
		if colors, used, _, ok := anytimeBest(ctx, cp); ok {
			return orient.FromForestDecomposition(g, colors, cost), partialInfo(cp, used), nil
		}
		return nil, nil, err
	}
	return orient.FromForestDecomposition(g, res.Colors, cost), nil, nil
}
