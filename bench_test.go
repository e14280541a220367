package nwforest_test

import (
	"context"
	"testing"

	"nwforest"
	"nwforest/internal/experiments"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

// One benchmark per paper artifact: each runs the experiment that
// regenerates the corresponding table/figure (see EXPERIMENTS.md) and
// reports its key measured quantities as custom metrics.

func runExperiment(b *testing.B, name string) {
	b.Helper()
	r := experiments.Find(name)
	if r == nil {
		b.Fatalf("experiment %q not registered", name)
	}
	var metrics map[string]float64
	for i := 0; i < b.N; i++ {
		tab, err := r.Run(experiments.Config{Scale: 1, Seed: 12345})
		if err != nil {
			b.Fatal(err)
		}
		metrics = tab.Metrics
	}
	for k, v := range metrics {
		b.ReportMetric(v, k)
	}
}

// BenchmarkTable1 regenerates Table 1: the (1+eps)a-FD algorithm matrix.
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure1 regenerates Figure 1 / Theorem 3.2: augmenting
// sequence lengths and radii stay within O(log n / eps).
func BenchmarkFigure1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFigure2 regenerates Figure 2 / Proposition 3.3: geometric
// growth of Algorithm 1's explored set.
func BenchmarkFigure2(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFigure3 regenerates Figure 3 / Theorem 4.2: CUT goodness and
// leftover load for both rules.
func BenchmarkFigure3(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkTheorem21 regenerates the Theorem 2.1 claims (H-partition).
func BenchmarkTheorem21(b *testing.B) { runExperiment(b, "hpartition") }

// BenchmarkTheorem23 regenerates the Theorem 2.3 claim ((4+eps)a*-LSFD).
func BenchmarkTheorem23(b *testing.B) { runExperiment(b, "lsfd") }

// BenchmarkTheorem49 regenerates the Theorem 4.9 claim (color splitting).
func BenchmarkTheorem49(b *testing.B) { runExperiment(b, "split") }

// BenchmarkTheorem410 regenerates the Theorem 4.10 claim ((1+eps)a-LFD).
func BenchmarkTheorem410(b *testing.B) { runExperiment(b, "lfd") }

// BenchmarkTheorem54 regenerates the Theorem 5.4 claims (SFD and LSFD).
func BenchmarkTheorem54(b *testing.B) { runExperiment(b, "sfd") }

// BenchmarkCorollary11 regenerates Corollary 1.1: orientation rounds
// linear in 1/eps.
func BenchmarkCorollary11(b *testing.B) { runExperiment(b, "orient") }

// BenchmarkCorollary12 regenerates Corollary 1.2: star-arboricity bounds.
func BenchmarkCorollary12(b *testing.B) { runExperiment(b, "stararb") }

// BenchmarkPropC1 regenerates Proposition C.1: the Omega(1/eps) diameter
// lower bound on the line multigraph.
func BenchmarkPropC1(b *testing.B) { runExperiment(b, "lowerbound") }

// BenchmarkBaselineBE regenerates the Barenboim-Elkin baseline scaling.
func BenchmarkBaselineBE(b *testing.B) { runExperiment(b, "baseline") }

// BenchmarkExactGW regenerates the Gabow-Westermann exact ground truth.
func BenchmarkExactGW(b *testing.B) { runExperiment(b, "exact") }

// BenchmarkDynamicChurn runs the dynamic-graph workload: a maintained
// forest decomposition under an insert/delete churn stream, reporting
// the repair-ladder counters and the measured speedup over per-mutation
// full rebuilds (see internal/experiments.DynamicChurn).
func BenchmarkDynamicChurn(b *testing.B) { runExperiment(b, "dynamic") }

// BenchmarkDecompose is the end-to-end hot path: one full
// (1+eps)a-forest decomposition of a 4-tree multigraph union through the
// public API, the same call the nwserve workers execute per job.
func BenchmarkDecompose(b *testing.B) {
	g := gen.ForestUnion(2000, 4, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := nwforest.Decompose(g, nwforest.Options{Alpha: 4, Eps: 0.5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if d.NumForests < 4 {
			b.Fatalf("NumForests = %d", d.NumForests)
		}
	}
}

// BenchmarkBeRoad is one op of perfbench's be-road workload: the "be"
// baseline (α* = 3, ε = 0.5) through nwforest.Run on the 192×192 road
// network with its edge IDs shuffled as the workload's seed 1 shuffles
// them, then the workload's own check of the result. Run verifies the
// coloring too, so an op walks its color classes twice.
func BenchmarkBeRoad(b *testing.B) {
	edges := append([]graph.Edge(nil), gen.RoadNetwork(192, 192, 1).Edges()...)
	rng.New(1).Split(1).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g := graph.MustNew(192*192, edges)
	req := nwforest.Request{Algorithm: "be", AlphaStar: 3, Options: nwforest.Options{Eps: 0.5}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nwforest.Run(ctx, g, req)
		if err != nil {
			b.Fatal(err)
		}
		if err := verify.ForestDecomposition(g, res.Decomposition.Colors, res.Decomposition.NumForests); err != nil {
			b.Fatal(err)
		}
	}
}
