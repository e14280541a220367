package orient_test

import (
	"context"
	"fmt"
	"testing"

	"nwforest/internal/core"
	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/orient"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

// oracleFromForestDecomposition is FromForestDecomposition as it was
// before it read forest.State's rooted trees: one subgraph per color and
// a BFS from each tree's minimum-ID vertex. It is kept as the reference
// the rooting through forest.State must match edge for edge.
func oracleFromForestDecomposition(g *graph.Graph, colors []int32, cost *dist.Cost) *verify.Orientation {
	o := verify.NewOrientation(g.M())
	for id := range o.FromU {
		o.FromU[id] = true // uncolored edges default to U -> V
	}
	byColor := make(map[int32][]int32)
	for id, c := range colors {
		if c != verify.Uncolored {
			byColor[c] = append(byColor[c], int32(id))
		}
	}
	maxDepth := 0
	for _, ids := range byColor {
		// SubgraphOfEdges keeps vertex IDs, so subgraph vertices are
		// original vertices.
		sub, emap := g.SubgraphOfEdges(ids)
		visited := make([]bool, sub.N())
		for v := int32(0); int(v) < sub.N(); v++ {
			if visited[v] || sub.Degree(v) == 0 {
				continue
			}
			// v is the minimum-ID vertex of its component because vertices
			// are scanned in increasing order. BFS-orient child -> parent.
			visited[v] = true
			queue := []int32{v}
			depth := map[int32]int{v: 0}
			for head := 0; head < len(queue); head++ {
				x := queue[head]
				for _, a := range sub.Adj(x) {
					if visited[a.To] {
						continue
					}
					visited[a.To] = true
					depth[a.To] = depth[x] + 1
					if depth[a.To] > maxDepth {
						maxDepth = depth[a.To]
					}
					id := emap[a.Edge]
					// a.To is the child; orient the edge away from it.
					o.FromU[id] = g.Edge(id).U == a.To
					queue = append(queue, a.To)
				}
			}
		}
	}
	cost.Charge(maxDepth+1, "orient/root-trees")
	return o
}

// rootRounds returns the rounds cost charged to orient/root-trees.
func rootRounds(t *testing.T, cost *dist.Cost) int {
	t.Helper()
	for _, p := range cost.Breakdown() {
		if p.Name == "orient/root-trees" {
			return p.Rounds
		}
	}
	t.Fatal("orient/root-trees was not charged")
	return 0
}

// requireMatchesOracle orients g under colors both ways and requires the
// same direction for every edge and the same rooting charge.
func requireMatchesOracle(t *testing.T, label string, g *graph.Graph, colors []int32) {
	t.Helper()
	var cost, oracleCost dist.Cost
	got := orient.FromForestDecomposition(g, colors, &cost)
	want := oracleFromForestDecomposition(g, colors, &oracleCost)
	for id := range want.FromU {
		if got.FromU[id] != want.FromU[id] {
			t.Fatalf("%s: edge %d %v (color %d) has FromU %v, oracle %v", label, id, g.Edge(int32(id)), colors[id], got.FromU[id], want.FromU[id])
		}
	}
	if r, want := rootRounds(t, &cost), rootRounds(t, &oracleCost); r != want {
		t.Fatalf("%s: orient/root-trees charged %d rounds, oracle %d", label, r, want)
	}
}

// randomColors gives each edge a color from palette or leaves it
// uncolored, with no regard for cycles.
func randomColors(g *graph.Graph, palette []int32, src *rng.Source) []int32 {
	colors := make([]int32, g.M())
	for id := range colors {
		colors[id] = verify.Uncolored
		if i := src.Intn(len(palette) + 1); i < len(palette) {
			colors[id] = palette[i]
		}
	}
	return colors
}

// TestFromForestDecompositionMatchesOracle holds the orientation to the
// per-color BFS it replaced: on decompositions, with and without
// diameter reduction, and on arbitrary partial colorings, whose classes
// hold cycles and parallel edges, so the order in which a vertex's edges
// are walked decides which edge becomes a parent edge.
func TestFromForestDecompositionMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		alpha int
	}{
		{"forest-union", gen.ForestUnion(500, 3, 1), 3},
		{"road-20x20", gen.RoadNetwork(20, 20, 2), 3},
		{"line", gen.LineMultigraph(400, 3), 3},
	} {
		for _, reduce := range []bool{false, true} {
			opts := core.FDOptions{Alpha: tc.alpha, Eps: 0.5, Seed: 1, ReduceDiameter: reduce}
			res, err := core.ForestDecomposition(context.Background(), tc.g, opts, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			requireMatchesOracle(t, fmt.Sprintf("%s, ReduceDiameter=%v", tc.name, reduce), tc.g, res.Colors)
		}
	}
	for seed := uint64(1); seed <= 6; seed++ {
		src := rng.New(seed)
		for gi, g := range []*graph.Graph{
			gen.MultiplyEdges(gen.Gnm(80, 200, seed), 2),
			gen.MultiplyEdges(gen.RandomTree(300, seed), 3),
			gen.RoadNetwork(15, 15, seed),
		} {
			for pi, palette := range [][]int32{{0, 1, 2}, {0}, {0, 5, 1 << 20}} {
				requireMatchesOracle(t, fmt.Sprintf("seed %d, graph %d, palette %d", seed, gi, pi), g, randomColors(g, palette, src))
			}
		}
	}

	// A same-colored parallel pair: the first edge is vertex 1's parent
	// edge, and the second closes a cycle and stays U -> V.
	pair := graph.MustNew(2, []graph.Edge{graph.E(0, 1), graph.E(0, 1)})
	requireMatchesOracle(t, "parallel pair", pair, []int32{7, 7})
	if o := orient.FromForestDecomposition(pair, []int32{7, 7}, nil); o.FromU[0] || !o.FromU[1] {
		t.Fatalf("parallel pair oriented %v, want [false true]", o.FromU)
	}
	requireMatchesOracle(t, "edgeless", graph.MustNew(5, nil), nil)
}
