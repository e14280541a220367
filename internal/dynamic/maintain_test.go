package dynamic

import (
	"context"
	"testing"

	"nwforest/internal/core"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/rng"
	"nwforest/internal/unionfind"
	"nwforest/internal/verify"
)

// startMaintainer decomposes g and wraps the result in a Maintainer.
func startMaintainer(t *testing.T, n, alpha int, seed uint64, cfg Config) *Maintainer {
	t.Helper()
	g := gen.ForestUnion(n, alpha, seed)
	res, err := core.ForestDecomposition(context.Background(), g, core.FDOptions{Alpha: alpha, Eps: 0.5, Seed: seed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = alpha
	}
	if cfg.Eps == 0 {
		cfg.Eps = 0.5
	}
	cfg.Seed = seed
	m, err := NewMaintainer(g, res.Colors, res.NumColors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// churn applies T random mutations (insertBias in [0,1] is the insert
// probability; hotspot concentrates a fifth of the inserts on a few
// vertices to force conflicts).
func churn(t *testing.T, m *Maintainer, r *rng.Source, T int, insertBias float64, hotspot bool) {
	t.Helper()
	n := m.Graph().N()
	for i := 0; i < T; i++ {
		if m.Graph().M() == 0 || r.Float64() < insertBias {
			lim := n
			if hotspot && r.Intn(5) == 0 {
				lim = 16
			}
			u, v := int32(r.Intn(lim)), int32(r.Intn(lim))
			if u == v {
				continue
			}
			if _, err := m.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
		} else {
			id := int32(r.Intn(m.Graph().NumIDs()))
			if !m.Graph().Live(id) {
				continue
			}
			if err := m.DeleteEdge(id); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestChurnStaysValid is the headline property: after an arbitrary
// insert/delete sequence (checked at several intermediate points too),
// the maintained coloring passes the same oracle the one-shot pipeline
// is verified with.
func TestChurnStaysValid(t *testing.T) {
	for _, seed := range []uint64{2, 11, 23} {
		m := startMaintainer(t, 300, 3, seed, Config{})
		r := rng.New(seed * 31)
		for round := 0; round < 4; round++ {
			churn(t, m, r, 150, 0.6, true)
			g, colors, k, err := m.Result()
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if err := verify.ForestDecomposition(g, colors, k); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
	}
}

// TestForestCountNearRebuild checks the quality bound: incremental
// maintenance may not drift arbitrarily far from what a from-scratch
// decomposition of the final graph would use. The slack term covers the
// emergency colors a patch sequence can open before the repair budget
// forces a rebuild (at most RepairBudget/ExtraColorDebt of them, plus
// the variance of the randomized pipeline itself).
func TestForestCountNearRebuild(t *testing.T) {
	alpha := 3
	m := startMaintainer(t, 400, alpha, 5, Config{})
	churn(t, m, rng.New(77), 600, 0.65, true)
	g, colors, k, err := m.Result()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ForestDecomposition(g, colors, k); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := core.ForestDecomposition(context.Background(), g, core.FDOptions{Alpha: alpha + 2, Eps: 0.5, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	slack := DefaultRepairBudget/ExtraColorDebt + alpha
	if k > rebuilt.NumColors+slack {
		t.Fatalf("maintained %d forests, rebuild uses %d (+%d slack exceeded)", k, rebuilt.NumColors, slack)
	}
}

// TestRepairBudgetTriggersRebuild drives a hotspot hard with a tiny
// budget and checks the fallback ladder actually descends: conflicts
// reach the augmenting machinery, debt reaches the budget, a rebuild
// fires, and the result is still valid.
func TestRepairBudgetTriggersRebuild(t *testing.T) {
	m := startMaintainer(t, 200, 2, 9, Config{RepairBudget: 8})
	r := rng.New(13)
	// All inserts inside a 10-vertex hotspot: local density explodes.
	for i := 0; i < 120; i++ {
		u, v := int32(r.Intn(10)), int32(r.Intn(10))
		if u == v {
			continue
		}
		if _, err := m.InsertEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.AugmentRepairs+st.ExtraColors == 0 {
		t.Fatal("hotspot churn never reached the augmenting fallback")
	}
	if st.Rebuilds == 0 {
		t.Fatalf("repair budget 8 never triggered a rebuild (stats %+v)", st)
	}
	if _, _, _, err := m.Result(); err != nil {
		t.Fatal(err)
	}
	if m.Cost().Rounds() == 0 {
		t.Fatal("no amortized cost charged")
	}
}

// TestEmptyStart grows a decomposition from nothing: a maintainer over
// an edgeless graph with zero colors must mint colors as edges arrive.
func TestEmptyStart(t *testing.T) {
	g := gen.Grid(4, 4)
	empty, _ := g.SubgraphOfEdges(nil)
	m, err := NewMaintainer(empty, nil, 0, Config{Alpha: 1, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if _, err := m.InsertEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	fg, colors, k, err := m.Result()
	if err != nil {
		t.Fatal(err)
	}
	if fg.M() != g.M() {
		t.Fatalf("grew %d edges, want %d", fg.M(), g.M())
	}
	if err := verify.ForestDecomposition(fg, colors, k); err != nil {
		t.Fatal(err)
	}
	// A 4x4 grid has arboricity 2; growth should not need many more.
	if k > 4 {
		t.Fatalf("grid grown edge-by-edge used %d forests", k)
	}
}

// TestDeterminism: identical initial decomposition + identical mutation
// sequence must yield identical colors (the service's cache contract).
func TestDeterminism(t *testing.T) {
	run := func() []int32 {
		m := startMaintainer(t, 150, 3, 4, Config{})
		churn(t, m, rng.New(55), 300, 0.6, true)
		_, colors, _, err := m.Result()
		if err != nil {
			t.Fatal(err)
		}
		return colors
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("color %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNewMaintainerValidation(t *testing.T) {
	g := gen.Grid(3, 3)
	if _, err := NewMaintainer(g, make([]int32, g.M()+1), 2, Config{Alpha: 2, Eps: 0.5}); err == nil {
		t.Fatal("mismatched colors length accepted")
	}
	if _, err := NewMaintainer(g, make([]int32, g.M()), 2, Config{Eps: 0.5}); err == nil {
		t.Fatal("Alpha 0 accepted")
	}
	if _, err := NewMaintainer(g, make([]int32, g.M()), 2, Config{Alpha: 2}); err == nil {
		t.Fatal("Eps 0 accepted")
	}
	bad := make([]int32, g.M()) // all color 0: the grid has cycles
	if _, err := NewMaintainer(g, bad, 1, Config{Alpha: 2, Eps: 0.5}); err == nil {
		t.Fatal("cyclic initial coloring accepted")
	}
}

// TestFastPathLongTree inserts u-v where every color is present at both
// endpoints and only color 0 leaves them apart, with u's color-0 tree a
// 301-vertex path, longer than the average tree by far. The exact
// connectivity query must find color 0 on the fast path, without a
// compaction or an augmenting search.
func TestFastPathLongTree(t *testing.T) {
	const k, pathLen = 8, 300
	u, v, w := int32(0), int32(pathLen+1), int32(pathLen+2)
	var edges []graph.Edge
	var colors []int32
	for i := int32(0); i < pathLen; i++ {
		edges, colors = append(edges, graph.E(i, i+1)), append(colors, 0)
	}
	edges, colors = append(edges, graph.E(v, w)), append(colors, 0)
	for c := int32(1); c < k; c++ {
		edges, colors = append(edges, graph.E(u, v)), append(colors, c)
	}
	m, err := NewMaintainer(graph.MustNew(pathLen+3, edges), colors, k, Config{Alpha: 2, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.InsertEdge(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.FastRepairs != 1 || st.AugmentRepairs != 0 || st.ExtraColors != 0 || st.Compactions != 0 {
		t.Fatalf("stats %+v, want one fast repair and no compaction", st)
	}
	if c := m.Color(id); c != 0 {
		t.Fatalf("inserted edge took color %d, want 0", c)
	}
	if _, _, _, err := m.Result(); err != nil {
		t.Fatal(err)
	}
}

// fastPathColor computes the fast path's answer from the live edges
// alone: the first color missing at u or v, else the first color whose
// class leaves u and v in different components, by union-find; -1 when
// every color joins them.
func fastPathColor(m *Maintainer, u, v int32) int32 {
	dg := m.Graph()
	k := m.NumColors()
	atU, atV := make([]bool, k), make([]bool, k)
	classes := make([]*unionfind.DSU, k)
	for c := range classes {
		classes[c] = unionfind.New(dg.N())
	}
	for id := int32(0); int(id) < dg.NumIDs(); id++ {
		if !dg.Live(id) {
			continue
		}
		c, e := m.Color(id), dg.Edge(id)
		atU[c] = atU[c] || e.U == u || e.V == u
		atV[c] = atV[c] || e.U == v || e.V == v
		classes[c].Union(int(e.U), int(e.V))
	}
	for c := 0; c < k; c++ {
		if !atU[c] || !atV[c] {
			return int32(c)
		}
	}
	for c := 0; c < k; c++ {
		if !classes[c].Same(int(u), int(v)) {
			return int32(c)
		}
	}
	return -1
}

// TestFastPathMatchesUnionFind churns a hotspot-heavy mix of insertions
// and deletions and holds every insertion to fastPathColor, computed
// before it: a fast repair with exactly that color when there is one,
// else an augmenting repair or an extra color.
func TestFastPathMatchesUnionFind(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		m := startMaintainer(t, 200, 3, seed, Config{})
		r := rng.New(seed * 17)
		var fast, slow int
		for i := 0; i < 600; i++ {
			if r.Float64() >= 0.7 {
				if id := int32(r.Intn(m.Graph().NumIDs())); m.Graph().Live(id) {
					if err := m.DeleteEdge(id); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			lim := m.Graph().N()
			if r.Intn(2) == 0 {
				lim = 12
			}
			u, v := int32(r.Intn(lim)), int32(r.Intn(lim))
			if u == v {
				continue
			}
			want := fastPathColor(m, u, v)
			before := m.Stats()
			id, err := m.InsertEdge(u, v)
			if err != nil {
				t.Fatal(err)
			}
			after := m.Stats()
			if want >= 0 {
				fast++
				if after.FastRepairs != before.FastRepairs+1 || m.Color(id) != want {
					t.Fatalf("seed %d, insert %d (%d-%d): color %d with stats %+v, want a fast repair with color %d",
						seed, i, u, v, m.Color(id), after, want)
				}
				continue
			}
			slow++
			if after.AugmentRepairs+after.ExtraColors != before.AugmentRepairs+before.ExtraColors+1 {
				t.Fatalf("seed %d, insert %d (%d-%d): stats %+v after %+v, want an augmenting repair or an extra color",
					seed, i, u, v, after, before)
			}
		}
		if fast == 0 || slow == 0 {
			t.Fatalf("seed %d: %d fast and %d slow insertions, want both kinds", seed, fast, slow)
		}
		if _, _, _, err := m.Result(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkIncrementalJob times the service's one-edge incremental job
// on serve-mix's largest graph and options: NewMaintainer over a cached
// decomposition, one InsertEdge, then Result. The inserted edges are
// drawn from a fixed seed.
func BenchmarkIncrementalJob(b *testing.B) {
	g := gen.ForestUnion(1024, 3, 7)
	res, err := core.ForestDecomposition(context.Background(), g, core.FDOptions{Alpha: 4, Eps: 0.5, Seed: 7}, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Alpha: 4, Eps: 0.5, Seed: 7}
	r := rng.New(11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := int32(r.Intn(g.N())), int32(r.Intn(g.N()))
		if u == v {
			v = (u + 1) % int32(g.N())
		}
		m, err := NewMaintainer(g, res.Colors, res.NumColors, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.InsertEdge(u, v); err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := m.Result(); err != nil {
			b.Fatal(err)
		}
	}
}
