package verify_test

import (
	"context"
	"testing"

	"nwforest/internal/core"
	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/hpartition"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

// beColoring is the "be" descriptor's coloring of g: the Barenboim-Elkin
// forest decomposition of the H-partition at α* = 3, ε = 0.5.
func beColoring(tb testing.TB, g *graph.Graph) []int32 {
	tb.Helper()
	var cost dist.Cost
	hp, err := hpartition.Partition(context.Background(), g, hpartition.Threshold(3, 0.5), 16*g.N()+64, &cost)
	if err != nil {
		tb.Fatal(err)
	}
	colors, err := hpartition.ForestDecomposition(g, hp, &cost)
	if err != nil {
		tb.Fatal(err)
	}
	return colors
}

// shuffleEdges returns g with its edge IDs permuted by seed, as the
// benchmark's workloads present their graphs: class order then differs
// from vertex order, so the walk's vertex accesses are random.
func shuffleEdges(g *graph.Graph, seed uint64) *graph.Graph {
	edges := append([]graph.Edge(nil), g.Edges()...)
	rng.New(seed).Split(1).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return graph.MustNew(g.N(), edges)
}

func TestClassWalkMatchesOraclesOnRoadNetworks(t *testing.T) {
	road := gen.RoadNetwork(40, 40, 1)
	for _, g := range []struct {
		name string
		g    *graph.Graph
	}{
		{"", road},
		{"shuffled-", shuffleEdges(road, 1)},
	} {
		var cost dist.Cost
		res, err := core.ForestDecomposition(context.Background(), g.g, core.FDOptions{Alpha: 3, Eps: 0.5, Seed: 1}, &cost)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name   string
			colors []int32
		}{
			{"be", beColoring(t, g.g)},
			{"decompose", res.Colors},
		} {
			t.Run(g.name+c.name, func(t *testing.T) {
				if _, err := verify.Forests(g.g, c.colors, int(verify.MaxColor(c.colors))+1); err != nil {
					t.Fatal(err)
				}
				verify.CheckAgainstOracles(t, g.g, c.colors)
			})
		}
	}
}

// BenchmarkVerify times the fused check on the be-road workload's graph
// and coloring, with the generator's edge IDs and with the shuffled IDs
// the workload serves (its op's cost is the random access the generator
// order hides), and on a path with one color per edge (k = m), where a
// per-color O(n) cost would be quadratic.
func BenchmarkVerify(b *testing.B) {
	road := gen.RoadNetwork(192, 192, 1)
	shuffled := shuffleEdges(road, 1)
	const pathLen = 100_000
	pathEdges := make([]graph.Edge, pathLen)
	pathColors := make([]int32, pathLen)
	for i := range pathEdges {
		pathEdges[i] = graph.E(int32(i), int32(i+1))
		pathColors[i] = int32(i)
	}
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		colors []int32
	}{
		{"road-be", road, beColoring(b, road)},
		{"road-be-shuffled", shuffled, beColoring(b, shuffled)},
		{"path-k=m", graph.MustNew(pathLen+1, pathEdges), pathColors},
	} {
		b.Run(c.name, func(b *testing.B) {
			k := int(verify.MaxColor(c.colors)) + 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := verify.Forests(c.g, c.colors, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
