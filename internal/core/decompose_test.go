package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"nwforest/internal/dist"
	"nwforest/internal/forest"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/orient"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

func TestForestDecompositionForestUnion(t *testing.T) {
	g := gen.ForestUnion(400, 4, 1)
	var cost dist.Cost
	res, err := ForestDecomposition(context.Background(), g, FDOptions{Alpha: 4, Eps: 0.5, Seed: 7}, &cost)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ForestDecomposition(g, res.Colors, res.NumColors); err != nil {
		t.Fatal(err)
	}
	// Excess must stay below the (2+eps)alpha baseline by a clear margin.
	if res.NumColors >= 2*4 {
		t.Fatalf("used %d colors, baseline would use >= 8", res.NumColors)
	}
	if cost.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
}

func TestForestDecompositionMultigraph(t *testing.T) {
	g := gen.LineMultigraph(120, 5)
	res, err := ForestDecomposition(context.Background(), g, FDOptions{Alpha: 5, Eps: 0.4, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ForestDecomposition(g, res.Colors, res.NumColors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors >= 10 {
		t.Fatalf("used %d colors on alpha=5 multigraph", res.NumColors)
	}
}

func TestForestDecompositionGnm(t *testing.T) {
	g := gen.Gnm(300, 900, 5) // alpha ~= 4
	res, err := ForestDecomposition(context.Background(), g, FDOptions{Alpha: 5, Eps: 0.5, Seed: 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ForestDecomposition(g, res.Colors, res.NumColors); err != nil {
		t.Fatal(err)
	}
}

func TestForestDecompositionSampledCut(t *testing.T) {
	g := gen.ForestUnion(300, 3, 9)
	res, err := ForestDecomposition(context.Background(), g, FDOptions{Alpha: 3, Eps: 0.5, Seed: 1, Rule: CutSampled}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ForestDecomposition(g, res.Colors, res.NumColors); err != nil {
		t.Fatal(err)
	}
}

func TestForestDecompositionWithDiameterReduction(t *testing.T) {
	g := gen.LineMultigraph(200, 6) // worst case for diameter
	res, err := ForestDecomposition(context.Background(), g, FDOptions{
		Alpha: 6, Eps: 0.5, Seed: 2, ReduceDiameter: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ForestDecomposition(g, res.Colors, res.NumColors); err != nil {
		t.Fatal(err)
	}
	// z = ceil(4/eps) = 8 => diameter <= 2z = 16.
	if res.Diameter > 16 {
		t.Fatalf("diameter %d exceeds 2z = 16", res.Diameter)
	}
}

func TestForestDecompositionValidatesOptions(t *testing.T) {
	g := gen.Grid(4, 4)
	if _, err := ForestDecomposition(context.Background(), g, FDOptions{Alpha: 0, Eps: 0.5}, nil); err == nil {
		t.Fatal("Alpha=0 accepted")
	}
	if _, err := ForestDecomposition(context.Background(), g, FDOptions{Alpha: 2, Eps: 0}, nil); err == nil {
		t.Fatal("Eps=0 accepted")
	}
	if _, err := ForestDecomposition(context.Background(), g, FDOptions{Alpha: 2, Eps: 1.5}, nil); err == nil {
		t.Fatal("Eps>1 accepted")
	}
}

func TestForestDecompositionEmptyAndTiny(t *testing.T) {
	g := graph.MustNew(5, nil)
	res, err := ForestDecomposition(context.Background(), g, FDOptions{Alpha: 1, Eps: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors < 0 || len(res.Colors) != 0 {
		t.Fatal("bad result for edgeless graph")
	}
	g = graph.MustNew(2, []graph.Edge{graph.E(0, 1)})
	res, err = ForestDecomposition(context.Background(), g, FDOptions{Alpha: 1, Eps: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ForestDecomposition(g, res.Colors, res.NumColors); err != nil {
		t.Fatal(err)
	}
}

func TestForestDecompositionDeterministic(t *testing.T) {
	g := gen.ForestUnion(150, 3, 4)
	a, err := ForestDecomposition(context.Background(), g, FDOptions{Alpha: 3, Eps: 0.5, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ForestDecomposition(context.Background(), g, FDOptions{Alpha: 3, Eps: 0.5, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := range a.Colors {
		if a.Colors[id] != b.Colors[id] {
			t.Fatal("same seed produced different colorings")
		}
	}
}

// TestCorollary11EndToEnd: FD of diameter D -> (1+eps)alpha-orientation.
func TestCorollary11EndToEnd(t *testing.T) {
	g := gen.ForestUnion(250, 4, 6)
	res, err := ForestDecomposition(context.Background(), g, FDOptions{Alpha: 4, Eps: 0.5, Seed: 5, ReduceDiameter: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := orient.FromForestDecomposition(g, res.Colors, nil)
	if d := verify.MaxOutDegree(g, o); d > res.NumColors {
		t.Fatalf("orientation out-degree %d exceeds color count %d", d, res.NumColors)
	}
}

func TestCutDepthCapsDiameter(t *testing.T) {
	// A long path in one color.
	n := 300
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.E(int32(i), int32(i+1)))
	}
	g := graph.MustNew(n, edges)
	colors := make([]int32, g.M()) // all color 0
	newColors, extra, err := CutDepth(context.Background(), g, colors, 1, 10, 1, 0.5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if extra == 0 {
		t.Fatal("no extra colors used despite cutting")
	}
	if err := verify.ForestDecomposition(g, newColors, 1+extra); err != nil {
		t.Fatal(err)
	}
	if d := verify.MaxForestDiameter(g, newColors); d > 20 {
		t.Fatalf("diameter %d exceeds 2z = 20", d)
	}
}

func TestCutDepthNoCutNeeded(t *testing.T) {
	g := gen.Grid(3, 3)
	// Alternate colors so every tree is tiny.
	colors := make([]int32, g.M())
	for i := range colors {
		colors[i] = int32(i % 4)
	}
	if err := verify.PartialForestDecomposition(g, colors, 4); err != nil {
		t.Skip("coloring not a forest decomposition; adjust test")
	}
	newColors, extra, err := CutDepth(context.Background(), g, colors, 4, 50, 2, 0.5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if extra != 0 {
		t.Fatalf("extra = %d, want 0 for shallow trees", extra)
	}
	for i := range colors {
		if newColors[i] != colors[i] {
			t.Fatal("coloring changed without need")
		}
	}
}

func TestCutModDepthDisconnects(t *testing.T) {
	// Long monochromatic path; annulus = middle band. After the cut, no
	// color-0 path may cross the band.
	n := 200
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.E(int32(i), int32(i+1)))
	}
	g := graph.MustNew(n, edges)
	st := forest.FromColors(g, make([]int32, g.M())) // all color 0
	var annulus []int32
	for v := 60; v < 140; v++ {
		annulus = append(annulus, int32(v))
	}
	r := 80
	sc := forest.NewScratch(g.N())
	removed := cutModDepth(st, sc, annulus, r, rng.New(1))
	if len(removed) == 0 {
		t.Fatal("nothing cut")
	}
	if st.ConnectedInColorWith(sc, 0, 0, int32(n-1), nil) {
		t.Fatal("path still crosses the annulus")
	}
	// Load per vertex: each removal charges the child endpoint once.
	if len(removed) > 80/((r-2)/2)+3 {
		t.Fatalf("removed %d edges, far above the 1/N rate", len(removed))
	}
}

func TestCutSampledRespectsLoadCap(t *testing.T) {
	g := gen.ForestUnion(200, 3, 8)
	// Color everything via saturation.
	palettes := FullPalettes(g.M(), 4)
	st := forest.New(g)
	for id := int32(0); int(id) < g.M(); id++ {
		seq, _ := NewSearcher(st).FindAugmenting(palettes, id, nil, nil)
		if seq == nil {
			t.Fatal("saturation failed")
		}
		Apply(st, seq)
	}
	// 3-alpha orientation out-edges: use lower-ID orientation as a stand-in.
	outEdges := make([][]int32, g.N())
	for id, e := range g.Edges() {
		lo := e.U
		if e.V < lo {
			lo = e.V
		}
		outEdges[lo] = append(outEdges[lo], int32(id))
	}
	s := newSampleCutState(outEdges, 2, 0.9)
	all := make([]int32, g.N())
	for v := range all {
		all[v] = int32(v)
	}
	src := rng.New(5)
	var totalRemoved []int32
	for round := 0; round < 10; round++ {
		totalRemoved = append(totalRemoved, s.cut(st, all, src)...)
	}
	// Load cap: every vertex deleted at most 2 of its out-edges.
	count := make(map[int32]int)
	for _, id := range totalRemoved {
		e := g.Edges()[id]
		lo := e.U
		if e.V < lo {
			lo = e.V
		}
		count[lo]++
	}
	for v, c := range count {
		if c > 2 {
			t.Fatalf("vertex %d lost %d out-edges, cap 2", v, c)
		}
	}
}

// TestForestDecompositionCanceled exercises the cancellation contract of
// the context-first pipeline: a pre-canceled context fails immediately
// with ctx.Err() (not a retries-exhausted error), and a context canceled
// while a long decomposition is in flight interrupts it mid-phase —
// within the per-cluster / per-round check granularity — rather than
// after natural completion.
func TestForestDecompositionCanceled(t *testing.T) {
	g := gen.ForestUnion(2000, 4, 11)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ForestDecomposition(ctx, g, FDOptions{Alpha: 4, Eps: 0.5, Seed: 1}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err = %v, want context.Canceled", err)
	}

	// Mid-run: cancel from a second goroutine as soon as the run starts.
	// The run must return context.Canceled; if cancellation were only
	// observed at phase boundaries after completion, the result would be
	// nil-error instead.
	started := make(chan struct{})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() {
		<-started
		cancel2()
	}()
	close(started)
	_, err := ForestDecomposition(ctx2, g, FDOptions{Alpha: 4, Eps: 0.5, Seed: 1}, nil)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run: err = %v, want nil or context.Canceled", err)
	}

	// Deadline form: an already-expired deadline surfaces DeadlineExceeded.
	ctx3, cancel3 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel3()
	if _, err := ForestDecomposition(ctx3, g, FDOptions{Alpha: 4, Eps: 0.5, Seed: 1}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}
