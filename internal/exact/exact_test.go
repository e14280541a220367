package exact

import (
	"context"
	"errors"
	"testing"

	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// ctx is the searches' context in the tests that run them to completion.
var ctx = context.Background()

func TestForestPartitionTriangle(t *testing.T) {
	g := gen.Clique(3)
	if _, ok, _ := ForestPartition(ctx, g, 1); ok {
		t.Fatal("triangle partitioned into 1 forest")
	}
	colors, ok, _ := ForestPartition(ctx, g, 2)
	if !ok {
		t.Fatal("triangle not partitioned into 2 forests")
	}
	if err := verify.ForestDecomposition(g, colors, 2); err != nil {
		t.Fatal(err)
	}
}

func TestForestPartitionEdgeless(t *testing.T) {
	g := graph.MustNew(5, nil)
	if _, ok, _ := ForestPartition(ctx, g, 0); !ok {
		t.Fatal("edgeless graph should partition into 0 forests")
	}
	alpha, _, _ := Arboricity(ctx, g)
	if alpha != 0 {
		t.Fatalf("arboricity of edgeless graph = %d, want 0", alpha)
	}
}

func TestForestPartitionParallelEdges(t *testing.T) {
	// Two vertices with 3 parallel edges: arboricity 3.
	g := graph.MustNew(2, []graph.Edge{graph.E(0, 1), graph.E(0, 1), graph.E(0, 1)})
	if _, ok, _ := ForestPartition(ctx, g, 2); ok {
		t.Fatal("3 parallel edges partitioned into 2 forests")
	}
	colors, ok, _ := ForestPartition(ctx, g, 3)
	if !ok {
		t.Fatal("3 parallel edges not partitioned into 3 forests")
	}
	if err := verify.ForestDecomposition(g, colors, 3); err != nil {
		t.Fatal(err)
	}
}

func TestArboricityKnownFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"tree", gen.RandomTree(40, 1), 1},
		{"K4", gen.Clique(4), 2},
		{"K5", gen.Clique(5), 3},
		{"K6", gen.Clique(6), 3},
		{"K7", gen.Clique(7), 4},
		{"grid5x5", gen.Grid(5, 5), 2},
		{"K33", gen.CompleteBipartite(3, 3), 2}, // ceil(9/5) = 2
		{"K44", gen.CompleteBipartite(4, 4), 3}, // ceil(16/7) = 3
		{"line-multi-4", gen.LineMultigraph(10, 4), 4},
		{"forest-union-3", gen.ForestUnion(30, 3, 7), 3},
		{"forest-union-5", gen.ForestUnion(25, 5, 9), 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			alpha, colors, _ := Arboricity(ctx, tc.g)
			if alpha != tc.want {
				t.Fatalf("arboricity = %d, want %d", alpha, tc.want)
			}
			if err := verify.ForestDecomposition(tc.g, colors, alpha); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSimpleForestUnionArboricity(t *testing.T) {
	// SimpleForestUnion pins the density at exactly k, so arboricity is k
	// or k+1 (resampled edges may concentrate locally).
	g := gen.SimpleForestUnion(40, 4, 3)
	alpha, colors, _ := Arboricity(ctx, g)
	if alpha != 4 && alpha != 5 {
		t.Fatalf("arboricity = %d, want 4 or 5", alpha)
	}
	if err := verify.ForestDecomposition(g, colors, alpha); err != nil {
		t.Fatal(err)
	}
}

func TestArboricityMatchesDensityBound(t *testing.T) {
	// On random graphs, arboricity >= ceil(density) always; check it, and
	// check the optimal decomposition verifies.
	for seed := uint64(0); seed < 5; seed++ {
		g := gen.Gnm(30, 100, seed)
		alpha, colors, _ := Arboricity(ctx, g)
		if err := verify.ForestDecomposition(g, colors, alpha); err != nil {
			t.Fatal(err)
		}
		lower := (g.M() + g.N() - 2) / (g.N() - 1)
		if alpha < lower {
			t.Fatalf("arboricity %d below density bound %d", alpha, lower)
		}
		// alpha-1 must be infeasible by definition of Arboricity.
		if _, ok, _ := ForestPartition(ctx, g, alpha-1); ok {
			t.Fatalf("ForestPartition succeeded with alpha-1 = %d", alpha-1)
		}
	}
}

func TestMultipliedEdgesScaleArboricity(t *testing.T) {
	base := gen.Clique(5) // arboricity 3, density-tight (K5: 10/4 = 2.5 -> 3)
	multi := gen.MultiplyEdges(base, 3)
	alpha, colors, _ := Arboricity(ctx, multi)
	// K5 tripled: 30 edges / 4 = 7.5 -> at least 8.
	if alpha < 8 {
		t.Fatalf("arboricity of tripled K5 = %d, want >= 8", alpha)
	}
	if err := verify.ForestDecomposition(multi, colors, alpha); err != nil {
		t.Fatal(err)
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)th call on, so a search sees it end at a chosen edge.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestSearchCanceled ends both searches with context.Canceled, once for
// a context canceled before they start and once for one that ends
// halfway through the first partition's edges.
func TestSearchCanceled(t *testing.T) {
	g := gen.ForestUnion(30, 3, 7)
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name string
		ctx  func() context.Context
	}{
		{"before", func() context.Context { return canceled }},
		{"midway", func() context.Context { return &cancelAfter{ctx, g.M() / 2} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if colors, ok, err := ForestPartition(tc.ctx(), g, 3); !errors.Is(err, context.Canceled) || ok || colors != nil {
				t.Errorf("ForestPartition = %v, %v, %v; want nil, false, context.Canceled", colors, ok, err)
			}
			if alpha, colors, err := Arboricity(tc.ctx(), g); !errors.Is(err, context.Canceled) || alpha != 0 || colors != nil {
				t.Errorf("Arboricity = %d, %v, %v; want 0, nil, context.Canceled", alpha, colors, err)
			}
		})
	}
}

func BenchmarkExactArboricity(b *testing.B) {
	g := gen.ForestUnion(200, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alpha, _, _ := Arboricity(ctx, g)
		if alpha != 4 {
			b.Fatalf("arboricity = %d", alpha)
		}
	}
}
