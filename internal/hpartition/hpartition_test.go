package hpartition

import (
	"context"
	"errors"
	"testing"

	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/orient"
	"nwforest/internal/verify"
)

func mustPartition(t *testing.T, g *graph.Graph, thr int) *Result {
	t.Helper()
	var cost dist.Cost
	res, err := Partition(context.Background(), g, thr, 4*g.N()+10, &cost)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestThreshold(t *testing.T) {
	if Threshold(4, 0.5) != 10 {
		t.Fatalf("Threshold(4, 0.5) = %d, want 10", Threshold(4, 0.5))
	}
	if Threshold(1, 0.0) != 2 {
		t.Fatalf("Threshold(1, 0) = %d, want 2", Threshold(1, 0))
	}
}

// checkHProperty verifies the defining property of the H-partition: each
// vertex has at most t neighbors in its own or later classes.
func checkHProperty(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	for v := int32(0); int(v) < g.N(); v++ {
		count := 0
		for _, a := range g.Adj(v) {
			if res.Class[a.To] >= res.Class[v] {
				count++
			}
		}
		if count > res.T {
			t.Fatalf("vertex %d has %d neighbors in same-or-later classes (T=%d)", v, count, res.T)
		}
	}
}

func TestPartitionTree(t *testing.T) {
	g := gen.RandomTree(200, 1)
	res := mustPartition(t, g, 2) // alpha* = 1, t = 2 => (2+0)-threshold
	checkHProperty(t, g, res)
	if res.NumClasses < 1 {
		t.Fatal("no classes")
	}
}

func TestPartitionForestUnion(t *testing.T) {
	g := gen.ForestUnion(300, 4, 2)
	thr := Threshold(4, 0.5) // (2.5)*4 = 10
	res := mustPartition(t, g, thr)
	checkHProperty(t, g, res)
	// Peeling must terminate in O(log n / eps) classes; allow slack.
	if res.NumClasses > 60 {
		t.Fatalf("too many classes: %d", res.NumClasses)
	}
}

func TestPartitionStuck(t *testing.T) {
	g := gen.Clique(10) // min degree 9; threshold 3 can never peel
	if _, err := Partition(context.Background(), g, 3, 50, nil); err == nil {
		t.Fatal("expected peeling to fail on K10 with t=3")
	}
}

// roundRecorder is an observer that records every round it sees.
type roundRecorder struct{ rounds []int }

func (*roundRecorder) PhaseCharged(string, int, int)       {}
func (*roundRecorder) TrafficCharged(string, int64, int64) {}
func (r *roundRecorder) EngineRound(round int)             { r.rounds = append(r.rounds, round) }

// nopObserver is an observer that ignores every callback.
type nopObserver struct{}

func (nopObserver) PhaseCharged(string, int, int)       {}
func (nopObserver) TrafficCharged(string, int64, int64) {}
func (nopObserver) EngineRound(int)                     {}

// TestPartitionStallChargesBudget pins the stall rule: K10 with t=3
// removes nobody in round 0, so no later round can remove anybody. The
// peel must charge its whole budget at once, with no traffic, instead
// of stepping a million idle rounds.
func TestPartitionStallChargesBudget(t *testing.T) {
	const budget = 1 << 20
	obs := &roundRecorder{}
	var cost dist.Cost
	_, err := Partition(dist.WithObserver(context.Background(), obs), gen.Clique(10), 3, budget, &cost)
	if !errors.Is(err, dist.ErrMaxRounds) {
		t.Fatalf("err = %v, want one wrapping dist.ErrMaxRounds", err)
	}
	want := dist.Phase{Name: "hpartition/peel", Rounds: budget}
	if got := cost.Breakdown(); len(got) != 1 || got[0] != want {
		t.Fatalf("cost %+v, want only %+v", got, want)
	}
	if len(obs.rounds) > 1 {
		t.Fatalf("observer saw %d rounds, want at most 1", len(obs.rounds))
	}
}

// TestEstimateDegeneracyChargedRounds pins the rounds the doubling
// probes charge, failed probes' whole budgets included, on graphs where
// the probes below the estimate stall.
func TestEstimateDegeneracyChargedRounds(t *testing.T) {
	for _, c := range []struct{ n, rounds int }{{1000, 292}, {2000, 316}, {4000, 340}} {
		var cost dist.Cost
		est, err := EstimateDegeneracy(context.Background(), gen.Gnm(c.n, 5*c.n, 3), &cost)
		if err != nil {
			t.Fatal(err)
		}
		if est != 8 || cost.Rounds() != c.rounds {
			t.Fatalf("n=%d: estimate %d in %d rounds, want 8 in %d", c.n, est, cost.Rounds(), c.rounds)
		}
	}
}

// TestPartitionAllocs bounds the allocations of the be baseline's peel
// and labeling: a few flat arrays, independent of the graph's size.
func TestPartitionAllocs(t *testing.T) {
	g := gen.RoadNetwork(192, 192, 1)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		res, err := Partition(ctx, g, 7, 16*g.N()+64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ForestDecomposition(g, res, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("Partition + ForestDecomposition made %.0f allocations, want at most 16", allocs)
	}
}

// TestPartitionObserverZeroAlloc pins the observer's overhead contract
// on the production peel: a 4000-vertex path at t=1 peels from both ends
// in 2000 rounds, each reported to the observer, and attaching a
// no-op observer must not add a single allocation to the peel.
func TestPartitionObserverZeroAlloc(t *testing.T) {
	g := gen.LineMultigraph(4000, 1)
	budget := 4*g.N() + 10
	rec := &roundRecorder{}
	res, err := Partition(dist.WithObserver(context.Background(), rec), g, 1, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClasses != 2000 || len(rec.rounds) != res.NumClasses {
		t.Fatalf("peeled in %d rounds with %d observed, want 2000 of both", res.NumClasses, len(rec.rounds))
	}
	allocs := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Partition(ctx, g, 1, budget, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := allocs(context.Background())
	observed := allocs(dist.WithObserver(context.Background(), nopObserver{}))
	if observed != plain {
		t.Fatalf("the peel made %.0f allocations with an observer attached, %.0f without", observed, plain)
	}
}

// BenchmarkPartition times Partition plus ForestDecomposition (the be
// baseline without its verification) on the be-road graph, which peels
// in 3 rounds, on a forest union that peels in 10, and on a path that
// peels in 2000 rounds, each reported to a no-op observer.
func BenchmarkPartition(b *testing.B) {
	for _, c := range []struct {
		name     string
		g        *graph.Graph
		t        int
		observed bool
	}{
		{"road-192x192/t=7", gen.RoadNetwork(192, 192, 1), 7, false},
		{"forest-union-4/t=5", gen.ForestUnion(1<<16, 4, 1), 5, false},
		{"line-4000/t=1/observed", gen.LineMultigraph(4000, 1), 1, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			if c.observed {
				ctx = dist.WithObserver(ctx, nopObserver{})
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Partition(ctx, c.g, c.t, 16*c.g.N()+64, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ForestDecomposition(c.g, res, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPartitionEmptyAndTiny(t *testing.T) {
	g := graph.MustNew(0, nil)
	if _, err := Partition(context.Background(), g, 1, 10, nil); err != nil {
		t.Fatal(err)
	}
	g = graph.MustNew(1, nil)
	res, err := Partition(context.Background(), g, 0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClasses != 1 {
		t.Fatalf("NumClasses = %d, want 1", res.NumClasses)
	}
}

func TestAcyclicOrientation(t *testing.T) {
	g := gen.ForestUnion(150, 3, 3)
	res := mustPartition(t, g, Threshold(3, 0.5))
	o := AcyclicOrientation(g, res, nil)
	if !verify.OrientationAcyclic(g, o) {
		t.Fatal("orientation has a cycle")
	}
	if d := verify.MaxOutDegree(g, o); d > res.T {
		t.Fatalf("out-degree %d exceeds T=%d", d, res.T)
	}
}

func TestForestDecomposition(t *testing.T) {
	g := gen.ForestUnion(150, 3, 4)
	res := mustPartition(t, g, Threshold(3, 0.5))
	colors, err := ForestDecomposition(g, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ForestDecomposition(g, colors, res.T); err != nil {
		t.Fatal(err)
	}
}

func TestForestDecompositionMultigraph(t *testing.T) {
	g := gen.LineMultigraph(50, 4)
	res := mustPartition(t, g, Threshold(4, 0.5))
	colors, err := ForestDecomposition(g, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ForestDecomposition(g, colors, res.T); err != nil {
		t.Fatal(err)
	}
}

func TestListForestDecomposition(t *testing.T) {
	g := gen.ForestUnion(120, 3, 5)
	res := mustPartition(t, g, Threshold(3, 0.5))
	// Palettes: T colors drawn from a shifted range per edge to make the
	// list constraint non-trivial.
	palettes := make([][]int32, g.M())
	for id := range palettes {
		base := int32(id % 4)
		for c := int32(0); c < int32(res.T); c++ {
			palettes[id] = append(palettes[id], base+2*c)
		}
	}
	colors, err := ListForestDecomposition(g, res, palettes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.RespectsPalettes(colors, palettes); err != nil {
		t.Fatal(err)
	}
	if err := verify.PartialForestDecomposition(g, colors, 1<<30); err != nil {
		t.Fatal(err)
	}
	for id, c := range colors {
		if c == verify.Uncolored {
			t.Fatalf("edge %d left uncolored", id)
		}
	}
}

func TestListForestDecompositionPaletteTooSmall(t *testing.T) {
	g := gen.Clique(8)
	res := mustPartition(t, g, 7)
	palettes := make([][]int32, g.M())
	for id := range palettes {
		palettes[id] = []int32{0} // single color: must fail on K8
	}
	if _, err := ListForestDecomposition(g, res, palettes, nil); err == nil {
		t.Fatal("expected palette exhaustion")
	}
}

func TestStarForestDecomposition(t *testing.T) {
	g := gen.ForestUnion(150, 3, 6)
	res := mustPartition(t, g, Threshold(3, 0.5))
	var cost dist.Cost
	colors, err := StarForestDecomposition(g, res, &cost)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.StarForestDecomposition(g, colors, 3*res.T); err != nil {
		t.Fatal(err)
	}
	if cost.Rounds() == 0 {
		t.Fatal("no rounds charged for star coloring")
	}
}

func TestStarForestDecompositionMultigraph(t *testing.T) {
	g := gen.MultiplyEdges(gen.Grid(8, 8), 2)
	res := mustPartition(t, g, Threshold(4, 0.5))
	colors, err := StarForestDecomposition(g, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.StarForestDecomposition(g, colors, 3*res.T); err != nil {
		t.Fatal(err)
	}
}

func TestPeelRoundsGrowLogarithmically(t *testing.T) {
	// Theorem 2.1: the number of classes is O(log n / eps). Verify the
	// measured class count grows no faster than ~log n on forest unions.
	var counts []int
	for _, n := range []int{100, 1000, 10000} {
		g := gen.ForestUnion(n, 3, 7)
		res := mustPartition(t, g, Threshold(3, 1.0))
		counts = append(counts, res.NumClasses)
	}
	if counts[2] > 4*counts[0]+8 {
		t.Fatalf("class counts %v grow faster than logarithmic", counts)
	}
}

func TestThreeColorRootedForestPath(t *testing.T) {
	// A path rooted at one end: parent[i] = i-1.
	n := 1000
	parent := make([]int32, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = int32(i - 1)
	}
	colors, rounds, err := ThreeColorRootedForest(parent)
	if err != nil {
		t.Fatal(err)
	}
	if rounds <= 0 || rounds > 40 {
		t.Fatalf("rounds = %d, want small positive (O(log* n))", rounds)
	}
	for i := 1; i < n; i++ {
		if colors[i] == colors[i-1] {
			t.Fatalf("adjacent vertices %d, %d share color %d", i-1, i, colors[i])
		}
		if colors[i] < 0 || colors[i] > 2 {
			t.Fatalf("color %d out of range", colors[i])
		}
	}
}

func TestThreeColorRootedForestStarAndSingletons(t *testing.T) {
	// A star: all vertices point to 0; plus isolated roots.
	parent := []int32{-1, 0, 0, 0, 0, -1, -1}
	colors, _, err := ThreeColorRootedForest(parent)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 4; v++ {
		if colors[v] == colors[0] {
			t.Fatalf("leaf %d shares color with center", v)
		}
	}
}

func TestThreeColorRandomForest(t *testing.T) {
	// Random rooted forest: each vertex points to a random earlier vertex
	// or is a root.
	g := gen.RandomTree(500, 9)
	// Build parent pointers by BFS from vertex 0.
	parent := make([]int32, g.N())
	for i := range parent {
		parent[i] = -1
	}
	seen := make([]bool, g.N())
	seen[0] = true
	queue := []int32{0}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range g.Adj(v) {
			if !seen[a.To] {
				seen[a.To] = true
				parent[a.To] = v
				queue = append(queue, a.To)
			}
		}
	}
	colors, _, err := ThreeColorRootedForest(parent)
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range parent {
		if p >= 0 && colors[v] == colors[p] {
			t.Fatalf("vertex %d shares color with parent %d", v, p)
		}
	}
}

// TestCorollary11Pipeline exercises the FD -> orientation reduction: a
// (2+eps)alpha forest decomposition oriented toward the roots yields a
// (2+eps)alpha-orientation.
func TestCorollary11Pipeline(t *testing.T) {
	g := gen.ForestUnion(200, 4, 8)
	res := mustPartition(t, g, Threshold(4, 0.5))
	colors, err := ForestDecomposition(g, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := orient.FromForestDecomposition(g, colors, nil)
	if d := verify.MaxOutDegree(g, o); d > res.T {
		t.Fatalf("orientation out-degree %d exceeds %d", d, res.T)
	}
}

func TestEstimateDegeneracy(t *testing.T) {
	cases := []struct {
		name     string
		g        *graph.Graph
		min, max int
	}{
		{"tree", gen.RandomTree(300, 1), 1, 4},
		{"forest-union-4", gen.ForestUnion(300, 4, 2), 4, 16},
		{"K12", gen.Clique(12), 6, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cost dist.Cost
			est, err := EstimateDegeneracy(context.Background(), tc.g, &cost)
			if err != nil {
				t.Fatal(err)
			}
			if est < tc.min || est > tc.max {
				t.Fatalf("estimate = %d, want in [%d, %d]", est, tc.min, tc.max)
			}
			if cost.Rounds() == 0 {
				t.Fatal("no rounds charged")
			}
		})
	}
}

func TestEstimateDegeneracyEmpty(t *testing.T) {
	if est, err := EstimateDegeneracy(context.Background(), graph.MustNew(0, nil), nil); err != nil || est != 0 {
		t.Fatalf("est=%d err=%v", est, err)
	}
}
