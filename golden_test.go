package nwforest_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"nwforest"
	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/rng"
)

// golden pins one result across commits: FNV-64 digests of the output
// vector and of the phase breakdown, plus the scalar fields a changed
// coloring would move. For "orient", colors digests FromU and forests
// holds MaxOutDegree.
type golden struct {
	colors   uint64
	forests  int
	rounds   int
	diameter int
	leftover int
	phases   uint64
}

func (g golden) literal(key string) string {
	return fmt.Sprintf("%q: {0x%016x, %d, %d, %d, %d, 0x%016x},",
		key, g.colors, g.forests, g.rounds, g.diameter, g.leftover, g.phases)
}

// goldenResults were recorded with the original one-sided BFS path
// query; every later change to the decomposition code must reproduce
// them exactly. A mismatch prints the
// entry's new literal, but regenerating the table is a behavior change,
// not a fix.
var goldenResults = map[string]golden{
	"decompose/forest-union/seed=1":    {0xd562c4c693c21607, 4, 3876, 38, 0, 0x4f21a2752c45233c},
	"list/forest-union/seed=1":         {0x8120aba2a1f51d45, 3, 4022, 56, 0, 0xb64e269720f6de3b},
	"orient/forest-union/seed=1":       {0x6356c0e6abdc7d30, 7, 3919, 0, 0, 0x9a78e94e6b321781},
	"pseudo/forest-union/seed=1":       {0x79fcc8f5398cb070, 7, 3919, -1, 0, 0x9a78e94e6b321781},
	"decompose/forest-union/seed=2":    {0xa07c646cefd00f34, 4, 3876, 37, 0, 0x4f21a2752c45233c},
	"list/forest-union/seed=2":         {0x5832bd6ac4287182, 3, 4006, 50, 0, 0x73e089793923e6a1},
	"orient/forest-union/seed=2":       {0x07dd9ca763d8dda5, 6, 3921, 0, 0, 0x0db5f89160f543ed},
	"pseudo/forest-union/seed=2":       {0x6ae7e702131bd875, 6, 3921, -1, 0, 0x0db5f89160f543ed},
	"decompose/road-40x40/seed=1":      {0x7603991c40a73014, 4, 5734, 134, 0, 0xcd9913879cb1e484},
	"list/road-40x40/seed=1":           {0x0d1fe66aebc4a7a4, 4, 5890, 114, 0, 0x2ff8511980e45f2e},
	"orient/road-40x40/seed=1":         {0x431211d2b4f5900f, 3, 5776, 0, 0, 0xee7222bd57cd160f},
	"pseudo/road-40x40/seed=1":         {0x636322d6fc8604e4, 3, 5776, -1, 0, 0xee7222bd57cd160f},
	"stars/road-40x40/seed=1":          {0x01bc47ace0cdd725, 10, 480, 2, 0, 0xe200d221af862faf},
	"decompose/road-40x40/seed=2":      {0x8caf6fa29ef3b8c5, 4, 5734, 139, 0, 0xcd9913879cb1e484},
	"list/road-40x40/seed=2":           {0xc1a2e4265cd4f663, 4, 5883, 81, 0, 0x3660cfb55f2da420},
	"orient/road-40x40/seed=2":         {0x35aadee2fbb89388, 3, 5777, 0, 0, 0x06019559c17a7d52},
	"pseudo/road-40x40/seed=2":         {0xc5dc50b285af6c07, 3, 5777, -1, 0, 0x06019559c17a7d52},
	"stars/road-40x40/seed=2":          {0x20e53c8344e2c375, 10, 479, 2, 0, 0xd14cb2525ccdcc1c},
	"decompose/gnm/seed=1":             {0x69fa785e4d7602e2, 5, 3876, 34, 0, 0x4f21a2752c45233c},
	"list/gnm/seed=1":                  {0xc67ba8bb7c433fb2, 4, 4018, 38, 0, 0x554ecd10e1b3a11f},
	"orient/gnm/seed=1":                {0x9715e96b7b3e68ef, 7, 3922, 0, 0, 0x401f7b4d9dd76a70},
	"pseudo/gnm/seed=1":                {0x807be8b0979fc246, 7, 3922, -1, 0, 0x401f7b4d9dd76a70},
	"stars/gnm/seed=1":                 {0x1aa1ae24e7a7adf9, 14, 325, 2, 0, 0x609f1b7fc790fc28},
	"decompose/gnm/seed=2":             {0x06cf6cc137d97395, 5, 3876, 41, 0, 0x4f21a2752c45233c},
	"list/gnm/seed=2":                  {0x1f572bae96140a77, 4, 4007, 41, 0, 0x375e712ed5255fdb},
	"orient/gnm/seed=2":                {0x01fc4ad9d6f6eaa8, 7, 3923, 0, 0, 0xf407d75d9a3868a1},
	"pseudo/gnm/seed=2":                {0x3ddde6089c5933f0, 7, 3923, -1, 0, 0xf407d75d9a3868a1},
	"stars/gnm/seed=2":                 {0x4f1748a8cfba8c7b, 14, 325, 2, 0, 0xcd7a7a96f124e888},
	"decompose/grid-x2/seed=1":         {0x89fa6d0f513916c5, 5, 3876, 57, 0, 0x4f21a2752c45233c},
	"list/grid-x2/seed=1":              {0x150e658510f63db0, 4, 4018, 57, 0, 0x554ecd10e1b3a11f},
	"orient/grid-x2/seed=1":            {0xcde6a7f26384abf8, 5, 3913, 0, 0, 0x5043a4a870a56a99},
	"pseudo/grid-x2/seed=1":            {0x5911b989f5a25f32, 5, 3913, -1, 0, 0x5043a4a870a56a99},
	"decompose/grid-x2/seed=2":         {0x89fa6d0f513916c5, 5, 3876, 57, 0, 0x4f21a2752c45233c},
	"list/grid-x2/seed=2":              {0x6c3a545993742ab7, 6, 4099, 112, 40, 0xc0e0f283756c27ba},
	"orient/grid-x2/seed=2":            {0x54c6f41d2d5d4865, 5, 3913, 0, 0, 0x37bf49ab90ea2939},
	"pseudo/grid-x2/seed=2":            {0xffa6aef28b15c0c5, 5, 3913, -1, 0, 0x37bf49ab90ea2939},
	"decompose/barabasi-albert/seed=1": {0x9bb9497813ce6a57, 4, 3876, 21, 0, 0x4f21a2752c45233c},
	"list/barabasi-albert/seed=1":      {0x1ba511ce311c7907, 3, 4022, 21, 0, 0xb64e269720f6de3b},
	"orient/barabasi-albert/seed=1":    {0xdecd51f6ef2e4628, 4, 3915, 0, 0, 0xa4f83536b803c608},
	"pseudo/barabasi-albert/seed=1":    {0xea8f73db4c0fd6f6, 4, 3915, -1, 0, 0xa4f83536b803c608},
	"stars/barabasi-albert/seed=1":     {0x53f57138862703ac, 19, 325, 2, 0, 0x64a731b7536e7228},
	"decompose/barabasi-albert/seed=2": {0x9e5c643e1edf9fa7, 4, 3876, 22, 0, 0x4f21a2752c45233c},
	"list/barabasi-albert/seed=2":      {0x4c7e9c99e305ce81, 3, 4006, 22, 0, 0x73e089793923e6a1},
	"orient/barabasi-albert/seed=2":    {0xc0dcc3c90d686b51, 3, 3914, 0, 0, 0x2b6050a48f5bdcca},
	"pseudo/barabasi-albert/seed=2":    {0x06a18112d5d6b6f7, 3, 3914, -1, 0, 0x2b6050a48f5bdcca},
	"stars/barabasi-albert/seed=2":     {0xfdbd470c5153163e, 19, 326, 2, 0, 0x1f0adca27ee615b1},
	"maintain/forest-union/seed=1":     {0xe5a9471167f2dde5, 4, 5, 0, 0, 0x6e7c57e9c6c3577e},
	"maintain/forest-union/seed=6":     {0xb7b7ae1066ba3cc6, 4, 13, 0, 0, 0x4f43ef86a46e2deb},
}

// shuffledIDs returns g with its edge IDs permuted, as the benchmark's
// served graphs are.
func shuffledIDs(g *graph.Graph, seed uint64) *graph.Graph {
	edges := append([]graph.Edge(nil), g.Edges()...)
	rng.New(seed).Split(1).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return graph.MustNew(g.N(), edges)
}

type goldenFamily struct {
	name   string
	alpha  int
	simple bool // "stars" needs a simple graph
	build  func(seed uint64) *graph.Graph
}

var goldenFamilies = []goldenFamily{
	{"forest-union", 3, false, func(seed uint64) *graph.Graph { return shuffledIDs(gen.ForestUnion(400, 3, seed), seed) }},
	{"road-40x40", 3, true, func(seed uint64) *graph.Graph { return shuffledIDs(gen.RoadNetwork(40, 40, seed), seed) }},
	{"gnm", 4, true, func(seed uint64) *graph.Graph { return gen.Gnm(400, 1200, seed) }},
	{"grid-x2", 4, false, func(uint64) *graph.Graph { return gen.MultiplyEdges(gen.Grid(20, 20), 2) }},
	{"barabasi-albert", 3, true, func(seed uint64) *graph.Graph { return gen.BarabasiAlbert(400, 3, seed) }},
}

func digestInt32s(xs []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

func digestBools(xs []bool) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		if x {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

func digestPhases(ps []dist.Phase) uint64 {
	h := fnv.New64a()
	for _, p := range ps {
		fmt.Fprintf(h, "%s:%d:%d:%d;", p.Name, p.Rounds, p.Messages, p.Bits)
	}
	return h.Sum64()
}

func goldenOf(res *nwforest.Result) golden {
	if o := res.Orientation; o != nil {
		return golden{colors: digestBools(o.FromU), forests: o.MaxOutDegree, rounds: o.Rounds, phases: digestPhases(o.Phases)}
	}
	d := res.Decomposition
	return golden{
		colors:   digestInt32s(d.Colors),
		forests:  d.NumForests,
		rounds:   d.Rounds,
		diameter: d.Diameter,
		leftover: d.LeftoverEdges,
		phases:   digestPhases(d.Phases),
	}
}

// maintainedGolden decomposes g, inserts 40 random edges through a
// Maintainer and pins the maintained coloring; forests holds the final
// color count and rounds the number of augmenting repairs.
func maintainedGolden(t *testing.T, g *graph.Graph, opts nwforest.Options) golden {
	t.Helper()
	d, err := nwforest.Decompose(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nwforest.Maintain(g, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(opts.Seed).Split(40)
	for i := 0; i < 40; {
		u, v := int32(src.Intn(g.N())), int32(src.Intn(g.N()))
		if u == v {
			continue
		}
		if _, err := m.InsertEdge(u, v); err != nil {
			t.Fatal(err)
		}
		i++
	}
	_, colors, k, err := m.Result()
	if err != nil {
		t.Fatal(err)
	}
	return golden{colors: digestInt32s(colors), forests: k, rounds: m.Stats().AugmentRepairs, phases: digestPhases(m.Cost().Breakdown())}
}

// TestGoldenColorings pins the results of every Algorithm 2 caller —
// decompose, list, orient, pseudo, stars and the dynamic Maintainer —
// on five graph families at two seeds each. The determinism tests
// compare two runs of one build; this one compares across commits.
func TestGoldenColorings(t *testing.T) {
	seen := make(map[string]bool, len(goldenResults))
	check := func(key string, got golden) {
		seen[key] = true
		if want, ok := goldenResults[key]; !ok || want != got {
			t.Errorf("golden mismatch; recorded entry would read\n\t%s", got.literal(key))
		}
	}
	for _, fam := range goldenFamilies {
		for _, seed := range []uint64{1, 2} {
			g := fam.build(seed)
			opts := nwforest.Options{Alpha: fam.alpha, Eps: 0.5, Seed: seed}
			for _, name := range []string{"decompose", "list", "orient", "pseudo", "stars"} {
				if name == "stars" && !fam.simple {
					continue
				}
				res, err := nwforest.Run(context.Background(), g, nwforest.Request{Algorithm: name, Options: opts})
				if err != nil {
					t.Fatalf("%s on %s/seed=%d: %v", name, fam.name, seed, err)
				}
				check(fmt.Sprintf("%s/%s/seed=%d", name, fam.name, seed), goldenOf(res))
			}
		}
	}
	// Seeds whose inserts reach the augmenting repair (5 and 13 times),
	// not only the free-color fast path.
	for _, seed := range []uint64{1, 6} {
		g := shuffledIDs(gen.ForestUnion(400, 3, seed), seed)
		check(fmt.Sprintf("maintain/forest-union/seed=%d", seed), maintainedGolden(t, g, nwforest.Options{Alpha: 3, Eps: 0.5, Seed: seed}))
	}
	for key := range goldenResults {
		if !seen[key] {
			t.Errorf("golden entry %q no longer produced", key)
		}
	}
}
