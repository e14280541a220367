package core

import (
	"context"
	"testing"

	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/verify"
)

func TestStarForestDecompositionSimpleGraph(t *testing.T) {
	// alpha = 8 with eps = 0.5: t = 12, deficiency budget 8.
	g := gen.SimpleForestUnion(240, 8, 3)
	var cost dist.Cost
	res, err := StarForestDecomposition(context.Background(), g, SFDOptions{Alpha: 9, Eps: 0.5, Seed: 1}, &cost)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.StarForestDecomposition(g, res.Colors, res.NumColors); err != nil {
		t.Fatal(err)
	}
	// Corollary 1.2 sanity: far fewer than 2*alpha star forests.
	if res.NumColors > 2*9+20 {
		t.Fatalf("used %d star forests", res.NumColors)
	}
	if cost.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
}

func TestStarForestDecompositionDenser(t *testing.T) {
	g := gen.Gnm(300, 1800, 7) // alpha ~ 7
	res, err := StarForestDecomposition(context.Background(), g, SFDOptions{Alpha: 8, Eps: 0.5, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.StarForestDecomposition(g, res.Colors, res.NumColors); err != nil {
		t.Fatal(err)
	}
}

func TestStarForestRejectsBadAlpha(t *testing.T) {
	g := gen.Clique(20) // alpha = 10
	if _, err := StarForestDecomposition(context.Background(), g, SFDOptions{Alpha: 2, Eps: 0.2, Seed: 1}, nil); err == nil {
		t.Fatal("alpha far below the true value accepted")
	}
}

func TestStarForestOptionValidation(t *testing.T) {
	g := gen.Grid(4, 4)
	if _, err := StarForestDecomposition(context.Background(), g, SFDOptions{Alpha: 0, Eps: 0.5}, nil); err == nil {
		t.Fatal("Alpha=0 accepted")
	}
	if _, err := StarForestDecomposition(context.Background(), g, SFDOptions{Alpha: 2, Eps: 0}, nil); err == nil {
		t.Fatal("Eps=0 accepted")
	}
}

func TestListStarForestDecomposition(t *testing.T) {
	// List variant (Lemma 5.3): generous palettes, moderate eps.
	g := gen.SimpleForestUnion(200, 10, 9)
	t0 := 15 // ceil((1+0.5)*10)
	palettes := make([][]int32, g.M())
	for id := range palettes {
		// 2t colors per edge drawn from a shifted window.
		base := int32(id % 7)
		for c := int32(0); c < int32(2*t0); c++ {
			palettes[id] = append(palettes[id], base+c)
		}
	}
	res, err := StarForestDecomposition(context.Background(), g, SFDOptions{
		Alpha: 10, Eps: 0.5, Seed: 2, Palettes: palettes, SelectProb: 0.6,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.StarForestDecomposition(g, res.Colors, 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := verify.RespectsPalettes(res.Colors, palettes); err != nil {
		t.Fatal(err)
	}
}

func TestLSFD24(t *testing.T) {
	// Theorem 2.3: (4+eps)alpha* palettes suffice for any multigraph.
	g := gen.MultiplyEdges(gen.Grid(10, 10), 2) // alpha* <= 4
	alphaStar := 4
	k := (4+1)*alphaStar - 1
	palettes := make([][]int32, g.M())
	for id := range palettes {
		base := int32((id % 3) * 2)
		for c := int32(0); c < int32(k); c++ {
			palettes[id] = append(palettes[id], base+c)
		}
	}
	colors, err := ListStarForest24(context.Background(), g, palettes, alphaStar, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.StarForestDecomposition(g, colors, 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := verify.RespectsPalettes(colors, palettes); err != nil {
		t.Fatal(err)
	}
}

func TestLSFD24Empty(t *testing.T) {
	g := gen.RandomTree(1, 1)
	colors, err := ListStarForest24(context.Background(), g, nil, 1, 0.5, nil)
	if err != nil || len(colors) != 0 {
		t.Fatalf("colors=%v err=%v", colors, err)
	}
}

func TestSplitColorsClustering(t *testing.T) {
	g := gen.ForestUnion(200, 4, 5)
	k := 40 // pretend alpha=32 with eps=0.25: big palettes for splitting
	palettes := FullPalettes(g.M(), k)
	var cost dist.Cost
	split, err := SplitColors(context.Background(), g, palettes, SplitOptions{
		Variant: SplitByClustering, Eps: 0.5, Alpha: 32, Seed: 3,
		MinMain: 20, MinReserve: 2,
	}, &cost)
	if err != nil {
		t.Fatal(err)
	}
	q0 := split.InducedPalettes(g, palettes, 0)
	q1 := split.InducedPalettes(g, palettes, 1)
	for id := range q0 {
		if len(q0[id])+len(q1[id]) > k {
			t.Fatal("induced palettes overlap")
		}
		if len(q0[id]) < 20 || len(q1[id]) < 2 {
			t.Fatalf("edge %d: |Q0|=%d |Q1|=%d", id, len(q0[id]), len(q1[id]))
		}
		// Disjointness of values.
		seen := map[int32]bool{}
		for _, c := range q0[id] {
			seen[c] = true
		}
		for _, c := range q1[id] {
			if seen[c] {
				t.Fatal("color in both induced palettes")
			}
		}
	}
	if cost.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
}

func TestSplitColorsLLL(t *testing.T) {
	g := gen.SimpleForestUnion(150, 4, 7)
	k := 48
	palettes := FullPalettes(g.M(), k)
	split, err := SplitColors(context.Background(), g, palettes, SplitOptions{
		Variant: SplitByLLL, Eps: 0.5, Alpha: 40, Seed: 9,
		ReserveProb: 0.35, MinMain: 16, MinReserve: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); int(id) < g.M(); id++ {
		k0, k1 := split.paletteSizes(g, palettes, id)
		if k0 < 16 || k1 < 1 {
			t.Fatalf("edge %d: k0=%d k1=%d", id, k0, k1)
		}
	}
}

func TestSplitSideIsConsistent(t *testing.T) {
	g := gen.Grid(5, 5)
	palettes := FullPalettes(g.M(), 10)
	split, err := SplitColors(context.Background(), g, palettes, SplitOptions{Eps: 0.5, Alpha: 8, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < g.N(); v++ {
		for c := int32(0); c < 10; c++ {
			s := split.Side(v, c)
			if s != 0 && s != 1 {
				t.Fatalf("Side(%d,%d) = %d", v, c, s)
			}
		}
	}
}

func TestListForestDecomposition(t *testing.T) {
	// Theorem 4.10 end to end: alpha = 24, palettes of 36 colors per edge.
	g := gen.ForestUnion(120, 24, 11)
	k := 36
	palettes := make([][]int32, g.M())
	for id := range palettes {
		base := int32(id % 5)
		for c := int32(0); c < int32(k); c++ {
			palettes[id] = append(palettes[id], base+c)
		}
	}
	var cost dist.Cost
	res, err := ListForestDecomposition(context.Background(), g, LFDOptions{
		Palettes: palettes, Alpha: 24, Eps: 0.5, Seed: 4,
	}, &cost)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.RespectsPalettes(res.Colors, palettes); err != nil {
		t.Fatal(err)
	}
	if err := verify.PartialForestDecomposition(g, res.Colors, 1<<30); err != nil {
		t.Fatal(err)
	}
	if res.ColorsUsed == 0 {
		t.Fatal("no colors recorded")
	}
	if cost.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
}

func TestListForestDecompositionValidation(t *testing.T) {
	g := gen.Grid(4, 4)
	if _, err := ListForestDecomposition(context.Background(), g, LFDOptions{Alpha: 0, Eps: 0.5}, nil); err == nil {
		t.Fatal("Alpha=0 accepted")
	}
	if _, err := ListForestDecomposition(context.Background(), g, LFDOptions{Alpha: 2, Eps: 0.5, Palettes: [][]int32{{1}}}, nil); err == nil {
		t.Fatal("palette length mismatch accepted")
	}
}
