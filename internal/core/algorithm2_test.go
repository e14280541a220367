package core

import (
	"context"
	"testing"

	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/verify"
)

func TestRunAlgorithm2ProducesValidPartial(t *testing.T) {
	g := gen.ForestUnion(300, 3, 1)
	k := 4
	var cost dist.Cost
	res, err := RunAlgorithm2(context.Background(), g, Algo2Options{
		Palettes: FullPalettes(g.M(), k),
		Alpha:    3,
		Eps:      0.5,
		Seed:     5,
	}, &cost)
	if err != nil {
		t.Fatal(err)
	}
	colors := res.State.Colors()
	if err := verify.PartialForestDecomposition(g, colors, k); err != nil {
		t.Fatal(err)
	}
	// Every edge is either colored or explicitly in the leftover.
	leftover := make(map[int32]bool, len(res.Leftover))
	for _, id := range res.Leftover {
		leftover[id] = true
	}
	for id := int32(0); int(id) < g.M(); id++ {
		if colors[id] == verify.Uncolored && !leftover[id] {
			t.Fatalf("edge %d neither colored nor leftover", id)
		}
		if colors[id] != verify.Uncolored && leftover[id] {
			t.Fatalf("edge %d both colored and leftover", id)
		}
	}
	if res.Stats.Classes <= 0 || res.Stats.Clusters <= 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
	if cost.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
}

func TestRunAlgorithm2RejectsBadPalettes(t *testing.T) {
	g := gen.Grid(4, 4)
	if _, err := RunAlgorithm2(context.Background(), g, Algo2Options{Palettes: nil, Alpha: 2, Eps: 0.5}, nil); err == nil {
		t.Fatal("palette length mismatch accepted")
	}
}

func TestRunAlgorithm2EmptyGraph(t *testing.T) {
	g := gen.RandomTree(1, 1)
	res, err := RunAlgorithm2(context.Background(), g, Algo2Options{Palettes: FullPalettes(0, 2), Alpha: 1, Eps: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leftover) != 0 {
		t.Fatal("leftover on empty graph")
	}
}

func TestRunAlgorithm2ExplicitRadii(t *testing.T) {
	g := gen.ForestUnion(200, 3, 3)
	res, err := RunAlgorithm2(context.Background(), g, Algo2Options{
		Palettes: FullPalettes(g.M(), 4),
		Alpha:    3,
		Eps:      0.5,
		Seed:     1,
		RPrime:   3,
		R:        8,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.R != 8 || res.Stats.RPrime != 3 || res.Stats.Unit != 22 {
		t.Fatalf("radii not honored: %+v", res.Stats)
	}
	if err := verify.PartialForestDecomposition(g, res.State.Colors(), 4); err != nil {
		t.Fatal(err)
	}
	// Tight radii may force leftovers, but the bulk must still be colored.
	if res.Stats.Augmented < g.M()/2 {
		t.Fatalf("only %d of %d edges augmented", res.Stats.Augmented, g.M())
	}
}

func TestRunAlgorithm2SequenceStatsBounded(t *testing.T) {
	g := gen.ForestUnion(250, 4, 9)
	res, err := RunAlgorithm2(context.Background(), g, Algo2Options{
		Palettes: FullPalettes(g.M(), 5),
		Alpha:    4,
		Eps:      0.25,
		Seed:     2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 3.2 bound with huge slack; mostly asserts stats plumbing.
	if res.Stats.MaxSeqLen > 200 || res.Stats.MaxSeqRadius > 200 {
		t.Fatalf("sequence stats out of range: %+v", res.Stats)
	}
	if res.Stats.Augmented == 0 {
		t.Fatal("nothing augmented")
	}
}
