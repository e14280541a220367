package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"nwforest/internal/dist"
	"nwforest/internal/forest"
	"nwforest/internal/graph"
	"nwforest/internal/hpartition"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

// CutDepth implements the diameter-reduction of Proposition 2.4 /
// Corollary 2.5: in every monochromatic tree, delete the parent edges of
// the vertices whose depth is congruent to a per-tree random offset
// modulo z; every surviving component then has depth < z, hence diameter
// < 2z. Deleted edges are recolored with fresh colors numColors,
// numColors+1, ... via the H-partition (each vertex loses about |C|/z
// parent edges, so the deleted subgraph has small pseudo-arboricity).
//
// It returns the new coloring and the number of extra colors used.
// Choosing z = ceil(4/eps) yields the O(1/eps)-diameter variant
// (requires alpha*eps modestly large for the extra colors to stay within
// ceil(eps*alpha)); z = ceil(log n / eps) yields the low-leftover variant.
func CutDepth(ctx context.Context, g *graph.Graph, colors []int32, numColors, z, alpha int, eps float64, seed uint64, cost *dist.Cost) ([]int32, int, error) {
	if z < 2 {
		z = 2
	}
	// The cuts go into out and st is only read: a c-edge's cut would
	// change only c's incidence lists, and each color's trees are rooted
	// before any of its cuts, so these are the trees a State updated cut
	// by cut would give.
	st, sc := forest.FromColors(g, colors), forest.NewScratch(g.N())
	out := slices.Clone(colors)
	src := rng.New(seed)
	all := make([]int32, g.N())
	for v := range all {
		all[v] = int32(v)
	}
	var removed []int32
	for c := int32(0); c < int32(numColors); c++ {
		trees := st.RootedTreesInColorWith(sc, c, all)
		for ti, tr := range trees {
			maxDepth := int32(0)
			for _, d := range tr.Depth {
				if d > maxDepth {
					maxDepth = d
				}
			}
			if int(maxDepth) < z {
				continue // already shallow
			}
			j := int32(src.Split(uint64(c)<<20 + uint64(ti)).Intn(z))
			for i := range tr.Verts {
				d := tr.Depth[i]
				if d > 0 && d%int32(z) == j {
					id := tr.Parent[i]
					out[id] = verify.Uncolored
					removed = append(removed, id)
				}
			}
		}
	}
	cost.Charge(2*z+2, "core/diameter-cut")

	if len(removed) == 0 {
		return out, 0, nil
	}
	// Recolor the removed edges with fresh colors. Star forests (diameter
	// <= 2) keep the overall diameter bound intact, at 3x the color cost
	// (Theorem 2.1(3)), exactly as the paper's proof does.
	sub, emap := g.SubgraphOfEdges(removed)
	t2 := max(2, int(math.Ceil(eps*float64(alpha))))
	t2, err := peelRecolor(ctx, sub, emap, out, int32(numColors), t2, alpha, hpartition.StarForestDecomposition, cost)
	if err != nil {
		return nil, 0, fmt.Errorf("core: diameter-cut recoloring: %w", err)
	}
	return out, 3 * t2, nil
}
