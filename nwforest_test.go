package nwforest_test

import (
	"testing"

	"nwforest"
	"nwforest/internal/gen"
)

func TestDecomposePublicAPI(t *testing.T) {
	g := gen.ForestUnion(200, 3, 1)
	d, err := nwforest.Decompose(g, nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := nwforest.Verify(g, d.Colors, d.NumForests); err != nil {
		t.Fatal(err)
	}
	if d.Rounds == 0 {
		t.Fatal("no rounds reported")
	}
	if len(d.Phases) == 0 {
		t.Fatal("no phase breakdown")
	}
	if d.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestNewGraphAndArboricity(t *testing.T) {
	g, err := nwforest.NewGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	alpha, colors := nwforest.Arboricity(g)
	if alpha != 2 {
		t.Fatalf("arboricity = %d, want 2", alpha)
	}
	if err := nwforest.Verify(g, colors, alpha); err != nil {
		t.Fatal(err)
	}
	if ps := nwforest.PseudoArboricity(g); ps != 2 {
		t.Fatalf("pseudo-arboricity = %d, want 2", ps)
	}
}

func TestNewGraphRejectsSelfLoop(t *testing.T) {
	if _, err := nwforest.NewGraph(2, [][2]int{{1, 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestDecomposeListPublicAPI(t *testing.T) {
	g := gen.ForestUnion(100, 16, 2)
	palettes := nwforest.FullPalettes(g.M(), 24)
	d, err := nwforest.DecomposeList(g, palettes, nwforest.Options{Alpha: 16, Eps: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumForests == 0 || d.Rounds == 0 {
		t.Fatalf("degenerate result: %v", d)
	}
}

func TestDecomposeStarsPublicAPI(t *testing.T) {
	g := gen.SimpleForestUnion(200, 8, 3)
	d, err := nwforest.DecomposeStars(g, nil, nwforest.Options{Alpha: 9, Eps: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := nwforest.VerifyStars(g, d.Colors, d.NumForests); err != nil {
		t.Fatal(err)
	}
	if d.Diameter > 2 {
		t.Fatalf("star forest with diameter %d", d.Diameter)
	}
}

func TestDecomposeStarsList24PublicAPI(t *testing.T) {
	g := gen.MultiplyEdges(gen.Grid(8, 8), 2)
	alphaStar := 4
	k := 5*alphaStar - 1
	palettes := nwforest.FullPalettes(g.M(), k)
	d, err := nwforest.DecomposeStarsList24(g, palettes, alphaStar, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := nwforest.VerifyStars(g, d.Colors, k); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeBEBaseline(t *testing.T) {
	g := gen.ForestUnion(300, 4, 4)
	d, err := nwforest.DecomposeBE(g, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := nwforest.Verify(g, d.Colors, d.NumForests); err != nil {
		t.Fatal(err)
	}
	// Baseline uses up to (2.5)*4 = 10 forests.
	if d.NumForests > 10 {
		t.Fatalf("baseline used %d forests", d.NumForests)
	}
}

func TestOurAlgorithmBeatsBaselineOnColors(t *testing.T) {
	g := gen.ForestUnion(400, 6, 5)
	ours, err := nwforest.Decompose(g, nwforest.Options{Alpha: 6, Eps: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, err := nwforest.DecomposeBE(g, 6, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if ours.NumForests >= base.NumForests {
		t.Fatalf("ours=%d forests, baseline=%d: expected strict improvement",
			ours.NumForests, base.NumForests)
	}
}

func TestOrientPublicAPI(t *testing.T) {
	g := gen.ForestUnion(200, 10, 6)
	o, err := nwforest.Orient(g, nwforest.Options{Alpha: 10, Eps: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// (1+eps)alpha + O(1): must beat the trivial 2*alpha bound once the
	// additive constants are amortized over a larger alpha.
	if o.MaxOutDegree >= 20 {
		t.Fatalf("orientation out-degree %d too large", o.MaxOutDegree)
	}
	if o.Rounds == 0 {
		t.Fatal("no rounds reported")
	}
	if len(o.Phases) == 0 {
		t.Fatal("no phase breakdown")
	}
	sum := 0
	for _, p := range o.Phases {
		sum += p.Rounds
	}
	if sum != o.Rounds {
		t.Fatalf("phase rounds sum to %d, total is %d", sum, o.Rounds)
	}
}

func TestOptionsKeyCanonical(t *testing.T) {
	a := nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 1}
	if a.Key() != (nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 1}).Key() {
		t.Fatal("equal Options produced different keys")
	}
	variants := []nwforest.Options{
		{Alpha: 4, Eps: 0.5, Seed: 1},
		{Alpha: 3, Eps: 0.25, Seed: 1},
		{Alpha: 3, Eps: 0.5, Seed: 2},
		{Alpha: 3, Eps: 0.5, Seed: 1, ReduceDiameter: true},
		{Alpha: 3, Eps: 0.5, Seed: 1, Sampled: true},
	}
	seen := map[string]bool{a.Key(): true}
	for _, v := range variants {
		if seen[v.Key()] {
			t.Fatalf("Options %+v collides with an earlier key %q", v, v.Key())
		}
		seen[v.Key()] = true
	}
	// Nearby-but-distinct floats must not collide.
	b := nwforest.Options{Alpha: 3, Eps: 0.5 + 1e-12, Seed: 1}
	if b.Key() == a.Key() {
		t.Fatal("distinct Eps bit patterns share a key")
	}
}

func TestDiameterHelper(t *testing.T) {
	g, err := nwforest.NewGraph(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if d := nwforest.Diameter(g, []int32{0, 0}); d != 2 {
		t.Fatalf("Diameter = %d, want 2", d)
	}
	if d := nwforest.Diameter(g, []int32{0, 0, 0}); d != -1 {
		t.Fatalf("Diameter of a coloring longer than the graph = %d, want -1", d)
	}
}
