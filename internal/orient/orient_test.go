package orient

import (
	"context"
	"testing"
	"testing/quick"

	"nwforest/internal/dist"
	"nwforest/internal/exact"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

func TestGreedy(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{graph.E(0, 1), graph.E(2, 1)})
	o := Greedy(g)
	if o.Tail(g, 0) != 0 || o.Tail(g, 1) != 1 {
		t.Fatal("Greedy did not orient from lower ID")
	}
}

func TestMinMaxOnCycle(t *testing.T) {
	// A cycle has pseudo-arboricity 1.
	g := graph.MustNew(5, []graph.Edge{
		graph.E(0, 1), graph.E(1, 2), graph.E(2, 3), graph.E(3, 4), graph.E(4, 0),
	})
	o, k := MinMax(g)
	if k != 1 {
		t.Fatalf("pseudo-arboricity of C5 = %d, want 1", k)
	}
	if verify.MaxOutDegree(g, o) != 1 {
		t.Fatal("orientation does not realize the bound")
	}
}

func TestMinMaxClique(t *testing.T) {
	// K5 has 10 edges on 5 vertices: pseudo-arboricity = ceil(10/5) = 2.
	g := gen.Clique(5)
	o, k := MinMax(g)
	if k != 2 {
		t.Fatalf("pseudo-arboricity of K5 = %d, want 2", k)
	}
	if verify.MaxOutDegree(g, o) != 2 {
		t.Fatal("orientation does not realize the bound")
	}
}

func TestMinMaxParallel(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{graph.E(0, 1), graph.E(0, 1), graph.E(0, 1), graph.E(0, 1)})
	_, k := MinMax(g)
	if k != 2 {
		t.Fatalf("pseudo-arboricity of 4 parallel edges = %d, want 2", k)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	g := graph.MustNew(4, nil)
	_, k := MinMax(g)
	if k != 0 {
		t.Fatalf("pseudo-arboricity of edgeless graph = %d, want 0", k)
	}
}

// TestPseudoArboricityVsArboricity checks alpha* <= alpha <= 2 alpha*.
func TestPseudoArboricityVsArboricity(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := gen.Gnm(25, 70, seed)
		ps := PseudoArboricity(g)
		alpha, _, _ := exact.Arboricity(context.Background(), g)
		if ps > alpha {
			t.Fatalf("alpha* = %d > alpha = %d", ps, alpha)
		}
		if alpha > 2*ps {
			t.Fatalf("alpha = %d > 2 alpha* = %d", alpha, 2*ps)
		}
		// Simple graphs also satisfy alpha <= alpha* + 1 [PQ82].
		if alpha > ps+1 {
			t.Fatalf("simple graph has alpha = %d > alpha*+1 = %d", alpha, ps+1)
		}
	}
}

func TestMinMaxMatchesDensityCertificate(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(14)
		var edges []graph.Edge
		for i := 0; i < 3*n; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				edges = append(edges, graph.E(u, v))
			}
		}
		g := graph.MustNew(n, edges)
		o, k := MinMax(g)
		if verify.MaxOutDegree(g, o) != k {
			return false
		}
		// k must be >= global density ceil(m/n).
		if g.M() > 0 && k < (g.M()+g.N()-1)/g.N() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFromForestDecomposition(t *testing.T) {
	// A path colored with a single color: orienting toward the root (the
	// min-ID endpoint of the component) gives out-degree 1.
	g := graph.MustNew(5, []graph.Edge{
		graph.E(0, 1), graph.E(1, 2), graph.E(2, 3), graph.E(3, 4),
	})
	colors := []int32{0, 0, 0, 0}
	var cost dist.Cost
	o := FromForestDecomposition(g, colors, &cost)
	if got := verify.MaxOutDegree(g, o); got != 1 {
		t.Fatalf("max out-degree = %d, want 1", got)
	}
	if out := verify.OutDegrees(g, o); out[0] != 0 {
		t.Fatalf("root has out-degree %d, want 0", out[0])
	}
	if cost.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
}

func TestFromForestDecompositionBoundsOutDegreeByColors(t *testing.T) {
	// Exact decomposition into alpha forests => orientation out-degree <= alpha.
	for seed := uint64(0); seed < 3; seed++ {
		g := gen.ForestUnion(40, 3, seed)
		alpha, colors, _ := exact.Arboricity(context.Background(), g)
		o := FromForestDecomposition(g, colors, nil)
		if got := verify.MaxOutDegree(g, o); got > alpha {
			t.Fatalf("out-degree %d exceeds alpha %d", got, alpha)
		}
	}
}

func TestFromForestDecompositionPartial(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{graph.E(0, 1), graph.E(1, 2)})
	colors := []int32{verify.Uncolored, 0}
	o := FromForestDecomposition(g, colors, nil)
	// Uncolored edge defaults to U->V.
	if o.Tail(g, 0) != 0 {
		t.Fatal("uncolored edge not oriented U->V")
	}
	if o.Tail(g, 1) != 2 {
		t.Fatalf("colored edge oriented from %d, want child 2", o.Tail(g, 1))
	}
}

func TestPseudoForestDecomposition(t *testing.T) {
	g := gen.Gnm(60, 200, 7)
	o, k := MinMax(g)
	colors := PseudoForestDecomposition(g, o)
	if err := verify.PseudoForestDecomposition(g, colors, k); err != nil {
		t.Fatal(err)
	}
	// Every vertex has at most one out-edge per label by construction.
	seen := map[[2]int32]bool{}
	for id := int32(0); int(id) < g.M(); id++ {
		key := [2]int32{o.Tail(g, id), colors[id]}
		if seen[key] {
			t.Fatalf("vertex %d has two out-edges labeled %d", key[0], key[1])
		}
		seen[key] = true
	}
}
