// Package nwforest is a Go implementation of the distributed
// Nash-Williams forest-decomposition and star-forest-decomposition
// algorithms of Harris, Su and Vu, "On the Locality of Nash-Williams
// Forest Decomposition and Star-Forest Decomposition" (PODC 2021).
//
// Given a multigraph of arboricity α, the package partitions its edges
// into close to (1+ε)·α forests — the Nash-Williams bound — using only
// local computation: the algorithms are simulations of LOCAL-model
// distributed protocols, and every result reports the number of
// synchronous communication rounds the protocol would take.
//
// The primary entry point is Run: a context-first dispatcher over the
// algorithm registry (internal/algo). A Request names one registered
// algorithm ("decompose", "list", "stars", "stars-list24", "be",
// "pseudo", "orient", "estimate-alpha", "arboricity") and carries its
// unified parameters; the Result is the union of the algorithms'
// outputs. Cancellation or expiry of ctx interrupts a run mid-phase —
// the H-partition peel checks the context every simulated round and
// Algorithm 2 every cluster — so servers can abandon work promptly. Algorithms lists the registered names.
//
// The historical per-algorithm functions (Decompose, DecomposeList,
// DecomposeStars, DecomposeStarsList24, DecomposeBE, DecomposePseudo,
// Orient, EstimateAlpha) remain as thin wrappers over Run for source
// compatibility; Arboricity and PseudoArboricity are exact centralized
// references.
//
// All randomness is deterministic given Options.Seed.
package nwforest

import (
	"context"

	"nwforest/internal/algo"
	"nwforest/internal/dynamic"
	"nwforest/internal/exact"
	"nwforest/internal/graph"
	"nwforest/internal/orient"
	"nwforest/internal/verify"
)

// Graph is an undirected multigraph on vertices 0..N-1. Parallel edges
// are allowed; self-loops are not.
type Graph = graph.Graph

// Edge is an undirected edge.
type Edge = graph.Edge

// NewGraph builds a graph on n vertices from (u, v) pairs.
func NewGraph(n int, edges [][2]int) (*Graph, error) {
	es := make([]Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.E(int32(e[0]), int32(e[1]))
	}
	return graph.New(n, es)
}

// Options configures the decomposition algorithms. See algo.Options for
// the field documentation; its Key method renders the canonical
// cache-key encoding.
type Options = algo.Options

// Request selects and parameterizes one algorithm run for Run: the
// algorithm name plus the union of the per-algorithm parameters
// (Options, AlphaStar, PaletteSize, optional explicit Palettes).
type Request = algo.Request

// Result is the union of the algorithms' outputs: a Decomposition, an
// Orientation, or scalar outputs, plus the phase breakdown.
type Result = algo.Result

// Decomposition is a forest decomposition of a graph.
type Decomposition = algo.Decomposition

// Orientation assigns every edge a direction.
type Orientation = algo.Orientation

// Algorithms lists the registered algorithm names in registration
// order. The returned slice is shared; callers must not mutate it.
func Algorithms() []string { return algo.Names() }

// Run validates and executes one algorithm run on g, dispatching
// through the algorithm registry. It is the single entry point behind
// every wrapper below, the nwserve worker pool, cmd/nwdecomp and the
// experiment harness. ctx cancellation or deadline expiry interrupts
// the run mid-phase and surfaces as ctx.Err().
func Run(ctx context.Context, g *Graph, req Request) (*Result, error) {
	return algo.Run(ctx, g, req)
}

// Decompose partitions the edges of g into close to (1+ε)·Alpha forests
// (Theorem 4.6 of the paper).
func Decompose(g *Graph, opts Options) (*Decomposition, error) {
	res, err := Run(context.Background(), g, Request{Algorithm: "decompose", Options: opts})
	if err != nil {
		return nil, err
	}
	return res.Decomposition, nil
}

// DecomposeList colors every edge from its own palette so that each color
// class is a forest (Theorem 4.10). Palettes should have at least
// ceil((1+ε)·Alpha) colors each.
func DecomposeList(g *Graph, palettes [][]int32, opts Options) (*Decomposition, error) {
	res, err := Run(context.Background(), g, Request{Algorithm: "list", Options: opts, Palettes: palettes})
	if err != nil {
		return nil, err
	}
	return res.Decomposition, nil
}

// DecomposeStars partitions the edges of a simple graph into close to
// (1+ε)·Alpha star forests (Theorem 5.4(1)). If palettes is non-nil, the
// list variant (Theorem 5.4(2)) is used; palettes then need
// ~(1+ε)·Alpha + O(εα) colors each.
func DecomposeStars(g *Graph, palettes [][]int32, opts Options) (*Decomposition, error) {
	res, err := Run(context.Background(), g, Request{Algorithm: "stars", Options: opts, Palettes: palettes})
	if err != nil {
		return nil, err
	}
	return res.Decomposition, nil
}

// DecomposeStarsList24 computes a list star-forest decomposition of a
// multigraph with palettes of size floor((4+ε)·alphaStar) - 1
// (Theorem 2.3).
func DecomposeStarsList24(g *Graph, palettes [][]int32, alphaStar int, eps float64) (*Decomposition, error) {
	res, err := Run(context.Background(), g, Request{
		Algorithm: "stars-list24",
		Options:   Options{Eps: eps},
		AlphaStar: alphaStar,
		Palettes:  palettes,
	})
	if err != nil {
		return nil, err
	}
	return res.Decomposition, nil
}

// DecomposeBE is the Barenboim-Elkin baseline: a (2+ε)·alphaStar forest
// decomposition via the H-partition in O(log n / ε) rounds
// (Theorem 2.1(2)+(labels)).
func DecomposeBE(g *Graph, alphaStar int, eps float64) (*Decomposition, error) {
	res, err := Run(context.Background(), g, Request{
		Algorithm: "be",
		Options:   Options{Eps: eps},
		AlphaStar: alphaStar,
	})
	if err != nil {
		return nil, err
	}
	return res.Decomposition, nil
}

// Orient computes a (1+ε)·Alpha + O(1) orientation by decomposing into
// forests and orienting every edge toward its tree root (Corollary 1.1).
func Orient(g *Graph, opts Options) (*Orientation, error) {
	res, err := Run(context.Background(), g, Request{Algorithm: "orient", Options: opts})
	if err != nil {
		return nil, err
	}
	return res.Orientation, nil
}

// DecomposePseudo partitions the edges into close to (1+ε)·Alpha
// pseudo-forests (graphs with at most one cycle per component) via the
// orientation of Corollary 1.1.
func DecomposePseudo(g *Graph, opts Options) (*Decomposition, error) {
	res, err := Run(context.Background(), g, Request{Algorithm: "pseudo", Options: opts})
	if err != nil {
		return nil, err
	}
	return res.Decomposition, nil
}

// EstimateAlpha computes, by distributed peeling with doubling thresholds,
// an upper bound on the arboricity of g that is at most ~5x the
// pseudo-arboricity. Use it to seed Options.Alpha when no bound is known
// (the paper assumes alpha is globally known; this removes that
// assumption at a constant-factor loss). It also reports the LOCAL
// rounds spent.
func EstimateAlpha(g *Graph) (int, int, error) {
	res, err := Run(context.Background(), g, Request{Algorithm: "estimate-alpha"})
	if err != nil {
		return 0, 0, err
	}
	return res.Alpha, res.Rounds, nil
}

// Arboricity computes the exact arboricity of g with the centralized
// Gabow-Westermann matroid-union algorithm, together with a witnessing
// optimal decomposition. (It calls the exact reference directly — no
// error path — but the same computation is registered as the
// "arboricity" algorithm for Run callers.)
func Arboricity(g *Graph) (int, []int32) { return exact.Arboricity(g) }

// PseudoArboricity computes the exact pseudo-arboricity (the minimum
// possible maximum out-degree over all orientations).
func PseudoArboricity(g *Graph) int { return orient.PseudoArboricity(g) }

// Verify checks that colors is a valid forest decomposition of g into
// numForests forests; it returns nil on success.
func Verify(g *Graph, colors []int32, numForests int) error {
	return verify.ForestDecomposition(g, colors, numForests)
}

// VerifyStars checks that colors is a valid star-forest decomposition.
func VerifyStars(g *Graph, colors []int32, numForests int) error {
	return verify.StarForestDecomposition(g, colors, numForests)
}

// Diameter returns the maximum monochromatic tree diameter of a
// decomposition.
func Diameter(g *Graph, colors []int32) int {
	return verify.MaxForestDiameter(g, colors)
}

// FullPalettes builds m palettes all equal to {0..k-1}; convenient for
// exercising the list APIs with ordinary colors.
func FullPalettes(m, k int) [][]int32 { return algo.FullPalettes(m, k) }

// DynamicGraph is a mutable overlay over a Graph: a frozen CSR base plus
// a delta of inserted and deleted edges, compacted back to pure CSR by
// Freeze. See internal/dynamic for the full contract (edge-ID stability,
// canonical compaction order).
type DynamicGraph = dynamic.Graph

// NewDynamicGraph returns a mutable overlay over g; g itself is never
// modified.
func NewDynamicGraph(g *Graph) *DynamicGraph { return dynamic.New(g) }

// Maintainer keeps a forest decomposition valid under InsertEdge and
// DeleteEdge by local repair — a free color at the endpoints when one
// exists, an augmenting sequence on conflict, and a budgeted full
// rebuild when repairs accumulate — instead of recomputing from scratch
// per mutation. Obtain one with Maintain.
type Maintainer = dynamic.Maintainer

// MaintainerStats counts a Maintainer's mutations and repairs.
type MaintainerStats = dynamic.Stats

// Maintain starts incremental maintenance of the decomposition d of g.
// opts should be the Options d was computed with: Alpha and Eps
// parameterize the full rebuilds the Maintainer falls back to, and Seed
// keeps them reproducible. The Maintainer's Result returns the current
// live graph with a verified decomposition at any point in the update
// stream.
func Maintain(g *Graph, d *Decomposition, opts Options) (*Maintainer, error) {
	return dynamic.NewMaintainer(g, d.Colors, d.NumForests, dynamic.Config{
		Alpha: opts.Alpha,
		Eps:   opts.Eps,
		Seed:  opts.Seed,
	})
}
