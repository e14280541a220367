package orient_test

import (
	"context"
	"testing"

	"nwforest/internal/core"
	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/orient"
)

// TestOrientationRootingIsLocal audits one phase's round charge against
// what it reads: the orientation's rooting, charged R rounds for trees
// of depth below R, must not let a change reach an edge more than 2R
// hops away. The coloring, a diameter-reduced decomposition of a line
// multigraph, is held fixed while two edges near one end swap their V
// endpoints, keeping n, m and every edge ID; every edge farther than 2R
// from the four perturbed vertices, in both graphs, must keep its
// direction. It lives in orient_test because core imports orient.
// CutDepth, the phase that bounds these trees' depth, is not local yet
// (its offsets follow the trees' enumeration order); its own audit
// belongs with that fix.
func TestOrientationRootingIsLocal(t *testing.T) {
	g := gen.LineMultigraph(3000, 3)
	opts := core.FDOptions{Alpha: 3, Eps: 0.5, Seed: 1, ReduceDiameter: true}
	res, err := core.ForestDecomposition(context.Background(), g, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cost dist.Cost
	before := orient.FromForestDecomposition(g, res.Colors, &cost)
	r := rootRounds(t, &cost)

	// Edges 3i..3i+2 join i and i+1: swap the V ends of (10, 11) and
	// (20, 21), so they become (10, 21) and (20, 11).
	edges := append([]graph.Edge(nil), g.Edges()...)
	a, b := 3*10, 3*20+1
	edges[a].V, edges[b].V = edges[b].V, edges[a].V
	perturbed := []int32{edges[a].U, edges[a].V, edges[b].U, edges[b].V}
	h := graph.MustNew(g.N(), edges)
	after := orient.FromForestDecomposition(h, res.Colors, nil)

	near := make([]bool, g.N())
	for _, x := range []*graph.Graph{g, h} {
		x.BFS(perturbed, 2*r, func(v int32, _ int) { near[v] = true })
	}
	checked := 0
	for id, e := range h.Edges() {
		if near[e.U] || near[e.V] {
			continue
		}
		checked++
		if before.FromU[id] != after.FromU[id] {
			t.Fatalf("edge %d %v, beyond 2R = %d hops of the perturbation, changed direction", id, e, 2*r)
		}
	}
	if checked < g.M()/2 {
		t.Fatalf("only %d of %d edges lie beyond 2R = %d hops; the audit checks too little", checked, g.M(), 2*r)
	}
	t.Logf("R = %d; %d of %d edges checked", r, checked, g.M())
}
