package nwforest_test

import (
	"fmt"
	"log"

	"nwforest"
	"nwforest/internal/gen"
	"nwforest/internal/rng"
)

// Decompose a small multigraph into (1+eps)*alpha forests and inspect
// the result: the 60-second tour of the public API.
func Example() {
	// A wheel: a cycle 1..8 plus spokes from the hub 0. Arboricity 2.
	var edges [][2]int
	for i := 1; i <= 8; i++ {
		next := i%8 + 1
		edges = append(edges, [2]int{i, next}, [2]int{0, i})
	}
	g, err := nwforest.NewGraph(9, edges)
	if err != nil {
		log.Fatal(err)
	}

	// The exact (centralized) arboricity, used here as the Alpha bound a
	// deployment would know or estimate.
	alpha, _ := nwforest.Arboricity(g)
	fmt.Printf("wheel graph: n=%d m=%d arboricity=%d\n", g.N(), g.M(), alpha)

	// Decompose into close to (1+eps)*alpha forests with the distributed
	// algorithm (simulated; Rounds reports its LOCAL complexity).
	d, err := nwforest.Decompose(g, nwforest.Options{Alpha: alpha, Eps: 0.5, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decomposition: %s\n", d)
	for id, c := range d.Colors {
		fmt.Printf("  edge %d (%d-%d) -> forest %d\n", id, edges[id][0], edges[id][1], c)
	}
	for _, p := range d.Phases {
		fmt.Printf("  %-28s %d rounds, %d msgs, %d bits\n", p.Name, p.Rounds, p.Messages, p.Bits)
	}

	// Always verifiable:
	if err := nwforest.Verify(g, d.Colors, d.NumForests); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: every color class is a forest")
	// Output:
	// wheel graph: n=9 m=16 arboricity=2
	// decomposition: forests=3 diameter=7 rounds=884
	//   edge 0 (1-2) -> forest 1
	//   edge 1 (0-1) -> forest 0
	//   edge 2 (2-3) -> forest 1
	//   edge 3 (0-2) -> forest 0
	//   edge 4 (3-4) -> forest 1
	//   edge 5 (0-3) -> forest 0
	//   edge 6 (4-5) -> forest 1
	//   edge 7 (0-4) -> forest 0
	//   edge 8 (5-6) -> forest 1
	//   edge 9 (0-5) -> forest 0
	//   edge 10 (6-7) -> forest 1
	//   edge 11 (0-6) -> forest 0
	//   edge 12 (7-8) -> forest 2
	//   edge 13 (0-7) -> forest 0
	//   edge 14 (8-1) -> forest 1
	//   edge 15 (0-8) -> forest 0
	//   netdecomp/class              748 rounds, 0 msgs, 0 bits
	//   core/algorithm2-class        136 rounds, 0 msgs, 0 bits
	// verified: every color class is a forest
}

// Frequency-constrained link coloring (Theorem 4.10 of the paper). Each
// link of a wireless backbone may only operate on a subset of the
// channel space. Coloring every link with an allowed channel so that
// each channel class is cycle-free gives loop-free per-channel routing:
// list forest decomposition. Seymour proved alpha channels per palette
// always suffice; the paper computes it locally with (1+eps)*alpha-size
// palettes.
func ExampleDecomposeList() {
	// Backbone with arboricity 24 (dense deployment).
	alpha := 24
	g := gen.ForestUnion(400, alpha, 11)
	fmt.Printf("backbone: n=%d m=%d arboricity<=%d\n", g.N(), g.M(), alpha)

	// Per-link palettes: 36 channels drawn from a 48-channel space, banned
	// channels differing per link.
	channels := 48
	need := 36 // (1+0.5)*24
	src := rng.New(5)
	palettes := make([][]int32, g.M())
	for id := range palettes {
		for _, c := range src.Split(uint64(id)).Sample(channels, need) {
			palettes[id] = append(palettes[id], int32(c))
		}
	}

	d, err := nwforest.DecomposeList(g, palettes, nwforest.Options{Alpha: alpha, Eps: 0.5, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("channel assignment: %d distinct channels used, %d LOCAL rounds\n",
		d.NumForests, d.Rounds)

	// Every link on an allowed channel, every channel loop-free.
	for id, c := range d.Colors {
		ok := false
		for _, q := range palettes[id] {
			if q == c {
				ok = true
				break
			}
		}
		if !ok {
			log.Fatalf("link %d assigned banned channel %d", id, c)
		}
	}
	fmt.Println("verified: all links on allowed channels, all channels loop-free")
	// Output:
	// backbone: n=400 m=9576 arboricity<=24
	// channel assignment: 35 distinct channels used, 4012 LOCAL rounds
	// verified: all links on allowed channels, all channels loop-free
}

// Low out-degree orientations of a social-network-like graph
// (Corollary 1.1 of the paper). A k-orientation lets every vertex own at
// most k of its incident edges, the building block for adjacency
// labeling, dynamic matrix-vector maintenance and triangle counting in
// sparse graphs. The paper reaches out-degree (1+eps)*alpha with round
// complexity linear in 1/eps.
func ExampleOrient() {
	// A preferential-attachment graph: heavy-tailed degrees (hubs with
	// many neighbors) but low arboricity, the canonical situation where
	// orientations beat degree-based edge ownership.
	g := gen.BarabasiAlbert(300, 4, 7)
	alpha, _ := nwforest.Arboricity(g)
	fmt.Printf("social graph: n=%d m=%d max-degree=%d arboricity=%d\n",
		g.N(), g.M(), g.MaxDegree(), alpha)

	for _, eps := range []float64{1.0, 0.5, 0.25} {
		o, err := nwforest.Orient(g, nwforest.Options{Alpha: alpha, Eps: eps, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("eps=%.2f: out-degree <= %d (vs max-degree %d), %d LOCAL rounds\n",
			eps, o.MaxOutDegree, g.MaxDegree(), o.Rounds)
	}

	// The exact optimum for reference.
	fmt.Printf("exact pseudo-arboricity (centralized): %d\n", nwforest.PseudoArboricity(g))
	// Output:
	// social graph: n=300 m=1190 max-degree=60 arboricity=4
	// eps=1.00: out-degree <= 5 (vs max-degree 60), 2068 LOCAL rounds
	// eps=0.50: out-degree <= 4 (vs max-degree 60), 3914 LOCAL rounds
	// eps=0.25: out-degree <= 4 (vs max-degree 60), 7299 LOCAL rounds
	// exact pseudo-arboricity (centralized): 4
}

// Round-based gossip scheduling (Section 5 of the paper). In a star
// forest every tree is a hub with leaves, so all its edges can be served
// in two communication steps (leaves to hub, hub to leaves) without any
// vertex talking on two edges at once, per color. Decomposing a network
// into k star forests therefore yields a 2k-step full-exchange schedule,
// and k can be as low as (1+eps)*alpha for simple graphs, far below the
// trivial degree bound.
func ExampleDecomposeStars() {
	// A sensor mesh: random near-regular connectivity.
	g := gen.SimpleForestUnion(100, 8, 3)
	alpha, _ := nwforest.Arboricity(g)
	fmt.Printf("mesh: n=%d m=%d max-degree=%d arboricity=%d\n",
		g.N(), g.M(), g.MaxDegree(), alpha)

	d, err := nwforest.DecomposeStars(g, nil, nwforest.Options{Alpha: alpha, Eps: 0.5, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	if err := nwforest.VerifyStars(g, d.Colors, d.NumForests); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("star forests: %d (diameter %d, %d LOCAL rounds)\n",
		d.NumForests, d.Diameter, d.Rounds)
	fmt.Printf("gossip schedule: %d steps (vs %d with one-edge-at-a-time per vertex)\n",
		2*d.NumForests, 2*g.MaxDegree())

	// How balanced the schedule is: edges per star color.
	perColor := map[int32]int{}
	for _, c := range d.Colors {
		perColor[c]++
	}
	minC, maxC := g.M(), 0
	for _, cnt := range perColor {
		minC, maxC = min(minC, cnt), max(maxC, cnt)
	}
	fmt.Printf("edges per round: min=%d max=%d (m=%d over %d colors)\n",
		minC, maxC, g.M(), len(perColor))
	// Output:
	// mesh: n=100 m=792 max-degree=24 arboricity=8
	// star forests: 16 (diameter 2, 201 LOCAL rounds)
	// gossip schedule: 32 steps (vs 48 with one-edge-at-a-time per vertex)
	// edges per round: min=2 max=72 (m=792 over 16 colors)
}

// Maintaining a forest decomposition of a changing network. Links come
// and go as hardware fails and capacity is added; recomputing the
// decomposition on every change is the wrong shape for a control plane.
// Maintain keeps it valid under a stream of edge insertions and
// deletions by local repair; NewDynamicGraph is the raw mutable overlay
// underneath, with its Freeze compaction.
func ExampleMaintain() {
	// A mesh with known arboricity 3, decomposed once, cold.
	g := gen.ForestUnion(500, 3, 21)
	opts := nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 21}
	d, err := nwforest.Decompose(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial: n=%d m=%d %s\n", g.N(), g.M(), d)

	// Maintain it under 300 mutations: 2 links added per link removed.
	m, err := nwforest.Maintain(g, d, opts)
	if err != nil {
		log.Fatal(err)
	}
	r := rng.New(99)
	for i := 0; i < 300; i++ {
		if r.Intn(3) < 2 {
			u, v := int32(r.Intn(g.N())), int32(r.Intn(g.N()))
			if u == v {
				continue
			}
			if _, err := m.InsertEdge(u, v); err != nil {
				log.Fatal(err)
			}
		} else {
			// Pick any live edge; IDs may have been renumbered by a
			// compaction, so sample from the current ID space.
			id := int32(r.Intn(m.Graph().NumIDs()))
			if !m.Graph().Live(id) {
				continue
			}
			if err := m.DeleteEdge(id); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Result compacts the overlay and re-verifies before returning.
	final, colors, k, err := m.Result()
	if err != nil {
		log.Fatal(err)
	}
	if err := nwforest.Verify(final, colors, k); err != nil {
		log.Fatal(err)
	}
	st := m.Stats()
	fmt.Printf("after churn: m=%d forests=%d (verified)\n", final.M(), k)
	fmt.Printf("repairs: %d fast, %d augmenting, %d new colors, %d rebuilds, %d compactions\n",
		st.FastRepairs, st.AugmentRepairs, st.ExtraColors, st.Rebuilds, st.Compactions)
	fmt.Printf("amortized cost: %d LOCAL rounds over %d mutations\n",
		m.Cost().Rounds(), st.Inserts+st.Deletes)

	// The overlay on its own: insert edges, compact, keep using new IDs.
	dg := nwforest.NewDynamicGraph(final)
	id, err := dg.InsertEdge(0, 250)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overlay: inserted edge %d, delta fraction %.4f\n", id, dg.DeltaFraction())
	remap := dg.Freeze() // compaction renumbers: map IDs you hold
	fmt.Printf("after Freeze: edge %d -> %d, m=%d (pure CSR again)\n", id, remap[id], dg.Base().M())
	// Output:
	// initial: n=500 m=1497 forests=4 diameter=46 rounds=4182
	// after churn: m=1585 forests=4 (verified)
	// repairs: 181 fast, 12 augmenting, 0 new colors, 0 rebuilds, 13 compactions
	// amortized cost: 302 LOCAL rounds over 298 mutations
	// overlay: inserted edge 1585, delta fraction 0.0006
	// after Freeze: edge 1585 -> 1585, m=1586 (pure CSR again)
}
