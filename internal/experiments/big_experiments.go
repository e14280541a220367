package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"nwforest/internal/core"
	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/trace"
	"nwforest/internal/verify"
)

// bigWorkers is the fixed worker count of the big-tier parallel runs.
// Pinning it (instead of GOMAXPROCS) keeps allocation counts — which the
// benchcmp gate compares against the committed baseline — identical
// across machines with different core counts; only wall time varies.
const bigWorkers = 4

// BigRoad is the big tier's headline experiment: a road network (large
// diameter, bounded degree) decomposed at small radii, so every
// netdecomp class holds many same-class clusters and the parallel
// cluster phase has real work to spread. It runs the full decomposition
// sequentially and with bigWorkers workers, verifies the colorings are
// bit-identical (the determinism contract — a mismatch is an error, not
// a metric), and reports both end-to-end and cluster-phase speedups.
// CI floors bigroad.cluster_speedup; the end-to-end speedup is reported
// ungated since netdecomp and verification stay sequential (Amdahl).
//
// Size is quadratic in scale (side = 64*scale): scale 1 is test-sized
// (4096 vertices), the CI big-bench job runs -scale 8 (262k vertices,
// 450k edges, ~400 clusters), and -scale 16 reaches ~10^6 vertices.
func BigRoad(cfg Config) (*Table, error) {
	side := 64 * cfg.scale()
	g := gen.RoadNetwork(side, side, cfg.Seed+1)
	// Explicit small radii (unit = 2(R+R') = 6): auto radii grow with
	// log n, making the netdecomp unit exceed the whole graph's diameter
	// at these sizes (one giant cluster, nothing to parallelize). At
	// unit 6 the first class of a 512x512 road network holds hundreds of
	// clusters with the largest near 10% of the mass — the many-balls
	// regime the parallel phase targets. The tight R' makes some
	// augmenting searches overrun their radius; those edges land in the
	// leftover, which is reported as a metric and stays a few percent.
	opts := core.Algo2Options{
		Palettes: core.FullPalettes(g.M(), 4),
		Alpha:    3, Eps: 0.5, Seed: cfg.Seed,
		RPrime: 1, R: 2,
	}
	seq, seqNs, seqPh, err := timedA2(g, opts, 1)
	if err != nil {
		return nil, fmt.Errorf("bigroad sequential: %w", err)
	}
	par, parNs, parPh, err := timedA2(g, opts, bigWorkers)
	if err != nil {
		return nil, fmt.Errorf("bigroad parallel: %w", err)
	}
	if err := sameColors(seq.State.Colors(), par.State.Colors()); err != nil {
		return nil, fmt.Errorf("bigroad: parallel run diverged from sequential: %w", err)
	}
	if err := verify.PartialForestDecomposition(g, seq.State.Colors(), 4); err != nil {
		return nil, fmt.Errorf("bigroad: invalid partial coloring: %w", err)
	}
	t := &Table{
		ID:     "BIG-road",
		Title:  fmt.Sprintf("road network %dx%d: parallel cluster phase vs sequential", side, side),
		Header: []string{"workers", "n", "m", "clusters", "total-ms", "cluster-ms", "netdecomp-ms", "identical"},
		Metrics: map[string]float64{
			"n":               float64(g.N()),
			"m":               float64(g.M()),
			"clusters":        float64(seq.Stats.Clusters),
			"seq_ns":          float64(seqNs),
			"par_ns":          float64(parNs),
			"speedup":         float64(seqNs) / float64(parNs),
			"cluster_speedup": float64(seqPh.clusters) / float64(parPh.clusters),
			"leftover":        float64(len(seq.Leftover)),
		},
	}
	t.Rows = append(t.Rows, bigRow(1, g, seq.Stats, seqNs, seqPh))
	t.Rows = append(t.Rows, bigRow(bigWorkers, g, par.Stats, parNs, parPh))
	return t, nil
}

// BigSocial runs the same seq-vs-parallel comparison on a
// preferential-attachment graph. Social-style graphs have diameter far
// below the netdecomp unit, so the whole graph is typically ONE cluster
// and per-cluster parallelism cannot help — this experiment documents
// that honestly (no speedup floor) while still enforcing the
// bit-identicality contract on a second topology class.
func BigSocial(cfg Config) (*Table, error) {
	n := 1500 * cfg.scale()
	g := gen.BarabasiAlbert(n, 4, cfg.Seed+2)
	opts := core.FDOptions{Alpha: 4, Eps: 1, Seed: cfg.Seed}
	seq, seqNs, seqPh, err := timedFD(g, opts, 1)
	if err != nil {
		return nil, fmt.Errorf("bigsocial sequential: %w", err)
	}
	par, parNs, parPh, err := timedFD(g, opts, bigWorkers)
	if err != nil {
		return nil, fmt.Errorf("bigsocial parallel: %w", err)
	}
	if err := sameColors(seq.Colors, par.Colors); err != nil {
		return nil, fmt.Errorf("bigsocial: parallel run diverged from sequential: %w", err)
	}
	t := &Table{
		ID:     "BIG-social",
		Title:  fmt.Sprintf("preferential attachment n=%d: worker-count invariance", n),
		Header: []string{"workers", "n", "m", "clusters", "total-ms", "cluster-ms", "netdecomp-ms", "identical"},
		Metrics: map[string]float64{
			"n":        float64(g.N()),
			"m":        float64(g.M()),
			"clusters": float64(seq.Stats.Clusters),
			"seq_ns":   float64(seqNs),
			"par_ns":   float64(parNs),
			"speedup":  float64(seqNs) / float64(parNs),
			"leftover": float64(seq.LeftoverEdges),
		},
	}
	t.Rows = append(t.Rows, bigRow(1, g, seq.Stats, seqNs, seqPh))
	t.Rows = append(t.Rows, bigRow(bigWorkers, g, par.Stats, parNs, parPh))
	return t, nil
}

// BigIngest measures the DIMACS and METIS reader throughput: it renders
// a generated road network into both text formats in memory and times
// the decoders, checking the round trip preserves the graph shape. This
// is the path real big-graph workloads (9th DIMACS road networks,
// METIS partitioning inputs) enter through cmd/nwdecomp.
func BigIngest(cfg Config) (*Table, error) {
	side := 48 * cfg.scale()
	g := gen.RoadNetwork(side, side, cfg.Seed+3)

	var dim bytes.Buffer
	fmt.Fprintf(&dim, "c generated road network %dx%d\np edge %d %d\n", side, side, g.N(), g.M())
	for _, e := range g.Edges() {
		fmt.Fprintf(&dim, "e %d %d\n", e.U+1, e.V+1)
	}
	adj := make([][]int32, g.N())
	for _, e := range g.Edges() {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	var met bytes.Buffer
	fmt.Fprintf(&met, "%d %d\n", g.N(), g.M())
	for _, nbrs := range adj {
		for i, w := range nbrs {
			if i > 0 {
				met.WriteByte(' ')
			}
			fmt.Fprintf(&met, "%d", w+1)
		}
		met.WriteByte('\n')
	}

	t := &Table{
		ID:     "BIG-ingest",
		Title:  fmt.Sprintf("reader throughput on %d-vertex road network", g.N()),
		Header: []string{"format", "bytes", "n", "m", "ms", "MB/s", "roundtrip"},
		Metrics: map[string]float64{
			"n": float64(g.N()),
			"m": float64(g.M()),
		},
	}
	for _, c := range []struct {
		name   string
		data   []byte
		decode func([]byte) (*graph.Graph, error)
	}{
		{"dimacs", dim.Bytes(), func(b []byte) (*graph.Graph, error) { return graph.DecodeDIMACS(bytes.NewReader(b)) }},
		{"metis", met.Bytes(), func(b []byte) (*graph.Graph, error) { return graph.DecodeMETIS(bytes.NewReader(b)) }},
	} {
		start := time.Now()
		dec, err := c.decode(c.data)
		ns := time.Since(start).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("bigingest %s: %w", c.name, err)
		}
		ok := dec.N() == g.N() && dec.M() == g.M()
		mbs := float64(len(c.data)) / 1e6 / (float64(ns) / 1e9)
		t.Rows = append(t.Rows, []string{
			c.name, itoa(len(c.data)), itoa(dec.N()), itoa(dec.M()),
			itoa(int(ns / 1e6)), f2(mbs), check(ok),
		})
		if !ok {
			return nil, fmt.Errorf("bigingest %s: decoded n=%d m=%d, want n=%d m=%d",
				c.name, dec.N(), dec.M(), g.N(), g.M())
		}
		t.Metrics[c.name+"_mb_s"] = mbs
	}
	return t, nil
}

// phaseSplit is where a run's Algorithm 2 wall time went: the
// (sequential) network decomposition versus the per-cluster CUT +
// augmentation phase that Workers parallelizes.
type phaseSplit struct{ netdecomp, clusters time.Duration }

// tracedCost returns a cost account observed by a trace recorder whose
// phase clock starts at start.
func tracedCost(start time.Time) (*dist.Cost, *trace.Recorder) {
	rec := trace.NewRecorder("", start, 0)
	rec.BeginExecution(start)
	cost := &dist.Cost{}
	cost.SetObserver(rec)
	return cost, rec
}

// splitOf reads a traced run's phase split from its phases' self time:
// the netdecomp/* phases and core/algorithm2-class, summed over every
// attempt a retrying caller made.
func splitOf(rec *trace.Recorder) phaseSplit {
	var ph phaseSplit
	for _, p := range rec.Phases() {
		switch {
		case p.Name == "core/algorithm2-class":
			ph.clusters += p.Self
		case strings.HasPrefix(p.Name, "netdecomp/"):
			ph.netdecomp += p.Self
		}
	}
	return ph
}

// timedFD runs the full forest decomposition with the given worker count
// and returns the result, wall time, and the Algorithm 2 phase split.
func timedFD(g *graph.Graph, opts core.FDOptions, workers int) (*core.FDResult, int64, phaseSplit, error) {
	opts.Workers = workers
	start := time.Now()
	cost, rec := tracedCost(start)
	res, err := core.ForestDecomposition(context.Background(), g, opts, cost)
	ns := time.Since(start).Nanoseconds()
	return res, ns, splitOf(rec), err
}

// timedA2 runs Algorithm 2 alone — the phase the Workers option
// parallelizes — without the end-to-end pipeline's verification and
// leftover recoloring, which are sequential by design and would only
// dilute the phase timing.
func timedA2(g *graph.Graph, opts core.Algo2Options, workers int) (*core.Algo2Result, int64, phaseSplit, error) {
	opts.Workers = workers
	start := time.Now()
	cost, rec := tracedCost(start)
	res, err := core.RunAlgorithm2(context.Background(), g, opts, cost)
	ns := time.Since(start).Nanoseconds()
	return res, ns, splitOf(rec), err
}

// sameColors enforces the parallel core's determinism contract.
func sameColors(a, b []int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("color array lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("edge %d colored %d sequentially but %d in parallel", i, a[i], b[i])
		}
	}
	return nil
}

func bigRow(workers int, g *graph.Graph, stats core.Algo2Stats, ns int64, ph phaseSplit) []string {
	return []string{
		itoa(workers), itoa(g.N()), itoa(g.M()), itoa(stats.Clusters),
		itoa(int(ns / 1e6)), itoa(int(ph.clusters.Milliseconds())), itoa(int(ph.netdecomp.Milliseconds())),
		"ok",
	}
}
