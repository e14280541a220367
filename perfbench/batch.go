package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"nwforest"
	"nwforest/internal/algo"
	"nwforest/internal/core"
	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/hpartition"
	"nwforest/internal/netdecomp"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

// batchWorkload is a closed loop with one caller: nwforest.Run back to
// back on one generated road network.
type batchWorkload struct {
	rows, cols int
	request    func(seed uint64) nwforest.Request
	// maxForests is the theorem's bound on the colors a run may use.
	maxForests func(req nwforest.Request) int
	pipeline   pipelineFunc
}

// pipelineFunc rebuilds Run's computation from the layers' exported
// calls, timing each one through tr.
type pipelineFunc func(ctx context.Context, g *graph.Graph, req nwforest.Request, tr *tracer) (*nwforest.Result, error)

// Batch workload parameters: α=3 bounds the road networks' arboricity
// (2 or 3), ε=0.5 is the paper's running example.
const (
	roadAlpha = 3
	roadEps   = 0.5
	// setupReps is how often a run repeats its set-up to report a median.
	setupReps = 3
	// roadGraphSeed fixes the road networks: a run's seed reorders their
	// edges and, for decompose, seeds the algorithm, so every seed
	// measures the same streets presented differently.
	roadGraphSeed = 1
	// minOps keeps a batch run's median a percentile with ten samples
	// beyond it even when an op takes longer than the run is long.
	minOps = 20
	// tracedPasses are averaged per layer in a traced run.
	tracedPasses = 3
)

var decomposeRoad = batchWorkload{
	rows: 64, cols: 64,
	request: func(seed uint64) nwforest.Request {
		return nwforest.Request{Algorithm: "decompose", Options: nwforest.Options{
			Alpha: roadAlpha, Eps: roadEps, Seed: rng.New(seed).Split(2).Uint64(),
		}}
	},
	maxForests: decomposeBound,
	pipeline:   decomposePipeline,
}

var beRoad = batchWorkload{
	rows: 192, cols: 192,
	request: func(uint64) nwforest.Request {
		return nwforest.Request{Algorithm: "be", AlphaStar: roadAlpha, Options: nwforest.Options{Eps: roadEps}}
	},
	maxForests: func(req nwforest.Request) int { return hpartition.Threshold(req.AlphaStar, req.Options.Eps) },
	pipeline:   bePipeline,
}

// decomposeBound is Theorem 4.6's (1+ε)α + O(1) forests, with the O(1)
// taken as the two reserve colors the leftover recolor starts with.
func decomposeBound(req nwforest.Request) int {
	return int(math.Ceil((1+req.Options.Eps)*float64(req.Options.Alpha))) + 2
}

// tracer records the traced pass's spans.
type tracer struct {
	spans []span
	// netdecompMs and netdecompRounds come from a standalone
	// netdecomp.Decompose call; it repeats work inside core's span, so
	// it is kept out of the spans and out of the pass's wall time.
	netdecompMs     float64
	netdecompRounds int
	stats           core.Algo2Stats
	leftover        int
}

func (tr *tracer) time(layer string, f func() error) error {
	t := time.Now()
	err := f()
	tr.spans = append(tr.spans, span{layer, msSince(t)})
	return err
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// decomposePipeline is core.ForestDecomposition as the "decompose"
// descriptor runs it (default radii and CUT rule, no diameter
// reduction), call by call.
func decomposePipeline(ctx context.Context, g *graph.Graph, req nwforest.Request, tr *tracer) (*nwforest.Result, error) {
	opts := req.Options
	k := int(math.Ceil((1 + opts.Eps/2) * float64(opts.Alpha)))
	if k < opts.Alpha+1 {
		k = opts.Alpha + 1
	}
	var cost dist.Cost
	var lastErr error
	for attempt := uint64(0); attempt < 3; attempt++ {
		seed := opts.Seed + attempt
		var a2 *core.Algo2Result
		err := tr.time("core", func() (err error) {
			a2, err = core.RunAlgorithm2(ctx, g, core.Algo2Options{
				Palettes: algo.FullPalettes(g.M(), k),
				Alpha:    opts.Alpha,
				Eps:      opts.Eps,
				Rule:     core.CutModDepth,
				Seed:     seed,
			}, &cost)
			return err
		})
		if err != nil {
			return nil, err
		}
		var ndCost dist.Cost
		t := time.Now()
		nd, err := netdecomp.Decompose(g, a2.Stats.Unit, rng.New(seed).Split(1).Uint64(), &ndCost)
		tr.netdecompMs = msSince(t)
		if err != nil {
			return nil, err
		}
		if nd.NumClasses != a2.Stats.Classes {
			return nil, fmt.Errorf("standalone netdecomp found %d classes, Algorithm 2 %d", nd.NumClasses, a2.Stats.Classes)
		}
		tr.netdecompRounds = ndCost.Rounds()
		tr.stats, tr.leftover = a2.Stats, len(a2.Leftover)

		colors := a2.State.Colors()
		if lastErr = tr.time("verify.partial", func() error { return verify.PartialForestDecomposition(g, colors, k) }); lastErr != nil {
			continue
		}
		extra := 0
		if len(a2.Leftover) > 0 {
			err := tr.time("hpartition", func() error {
				var err error
				extra, err = recolorLeftover(ctx, g, colors, a2.Leftover, k, opts, &cost)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		numColors := k + extra
		if err := tr.time("verify.forest", func() error { return verify.ForestDecomposition(g, colors, numColors) }); err != nil {
			return nil, err
		}
		var diam int
		tr.time("verify.diameter", func() error { diam = verify.MaxForestDiameter(g, colors); return nil })
		return &nwforest.Result{Decomposition: &nwforest.Decomposition{
			Colors:        colors,
			NumForests:    numColors,
			Diameter:      diam,
			LeftoverEdges: len(a2.Leftover),
			Rounds:        cost.Rounds(),
			Phases:        cost.Breakdown(),
		}}, nil
	}
	return nil, fmt.Errorf("all attempts failed: %w", lastErr)
}

// recolorLeftover colors the leftover edges with reserve colors
// offset, offset+1, ... by the H-partition, doubling the threshold
// from max(2, ⌈εα⌉) on failure, and returns the colors it added.
func recolorLeftover(ctx context.Context, g *graph.Graph, colors, leftover []int32, offset int, opts nwforest.Options, cost *dist.Cost) (int, error) {
	sub, emap := g.SubgraphOfEdges(leftover)
	t2 := max(2, int(math.Ceil(opts.Eps*float64(opts.Alpha))))
	for {
		hp, err := hpartition.Partition(ctx, sub, t2, 8*sub.N()+16, cost)
		if err != nil {
			if ctx.Err() != nil || t2 > 3*opts.Alpha+4 {
				return 0, err
			}
			t2 *= 2
			continue
		}
		subColors, err := hpartition.ForestDecomposition(sub, hp, cost)
		if err != nil {
			return 0, err
		}
		for id, c := range subColors {
			colors[emap[id]] = int32(offset) + c
		}
		return t2, nil
	}
}

// bePipeline is the "be" descriptor, call by call.
func bePipeline(ctx context.Context, g *graph.Graph, req nwforest.Request, tr *tracer) (*nwforest.Result, error) {
	var cost dist.Cost
	var colors []int32
	err := tr.time("hpartition", func() error {
		hp, err := hpartition.Partition(ctx, g, hpartition.Threshold(req.AlphaStar, req.Options.Eps), 16*g.N()+64, &cost)
		if err != nil {
			return err
		}
		colors, err = hpartition.ForestDecomposition(g, hp, &cost)
		return err
	})
	if err != nil {
		return nil, err
	}
	used := int(verify.MaxColor(colors)) + 1
	if err := tr.time("verify.forest", func() error { return verify.ForestDecomposition(g, colors, used) }); err != nil {
		return nil, err
	}
	var diam int
	tr.time("verify.diameter", func() error { diam = verify.MaxForestDiameter(g, colors); return nil })
	return &nwforest.Result{Decomposition: &nwforest.Decomposition{
		Colors:     colors,
		NumForests: used,
		Diameter:   diam,
		Rounds:     cost.Rounds(),
		Phases:     cost.Breakdown(),
	}}, nil
}

// fingerprint identifies a decomposition bit for bit.
type fingerprint struct {
	hash           uint64
	forests, round int
}

func fingerprintOf(d *nwforest.Decomposition) fingerprint {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range d.Colors {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	return fingerprint{h.Sum64(), d.NumForests, d.Rounds}
}

// checkDecomposition verifies d independently of the run that made it:
// a valid forest decomposition of g into d.NumForests forests, within
// maxForests colors.
func checkDecomposition(g *graph.Graph, d *nwforest.Decomposition, maxForests int) error {
	if d == nil {
		return fmt.Errorf("result carries no decomposition")
	}
	if err := verify.ForestDecomposition(g, d.Colors, d.NumForests); err != nil {
		return err
	}
	if d.NumForests > maxForests {
		return fmt.Errorf("%d forests exceed the theorem bound %d", d.NumForests, maxForests)
	}
	return nil
}

// shuffleEdges returns g with its edge IDs permuted by seed.
func shuffleEdges(g *graph.Graph, seed uint64) *graph.Graph {
	edges := append([]graph.Edge(nil), g.Edges()...)
	rng.New(seed).Split(1).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return graph.MustNew(g.N(), edges)
}

// runBatch measures one batch workload: set-up with a warm-up op, then
// ops back to back for at least `seconds` and minOps ops; with traced,
// also tracedPasses rebuilt-pipeline passes for the per-layer split.
func runBatch(ctx context.Context, w batchWorkload, seed uint64, seconds float64, traced bool) (*result, error) {
	// One P: on a two-core host the parallel cluster phase gains nothing
	// on a road network (its classes hold one or two clusters), and a
	// second P doubled the run-to-run spread.
	runtime.GOMAXPROCS(1)
	r := newResult()
	req := w.request(seed)
	bound := w.maxForests(req)
	var want *fingerprint
	var last *nwforest.Result
	op := func(g *graph.Graph) (float64, bool) {
		t := time.Now()
		res, err := nwforest.Run(ctx, g, req)
		ms := msSince(t)
		if err == nil {
			err = checkDecomposition(g, res.Decomposition, bound)
		}
		if err == nil {
			fp := fingerprintOf(res.Decomposition)
			if want == nil {
				want = &fp
			} else if fp != *want {
				err = fmt.Errorf("op returned %+v, an earlier op %+v: not bit-identical", fp, *want)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
			return ms, false
		}
		last = res
		return ms, true
	}

	// Set-up is generation, ingest and one warm-up op, whose outcome
	// counts like any other.
	var encoded []byte
	var g *graph.Graph
	var setup []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		var buf bytes.Buffer
		if err := graph.Encode(&buf, shuffleEdges(gen.RoadNetwork(w.rows, w.cols, roadGraphSeed), seed)); err != nil {
			return nil, err
		}
		var err error
		if g, _, err = graph.DecodeAuto(bytes.NewReader(buf.Bytes())); err != nil {
			return nil, err
		}
		if _, ok := op(g); ok {
			r.tally.ok++
		} else {
			r.tally.failed++
		}
		setup = append(setup, time.Since(t).Seconds())
		encoded = buf.Bytes()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s n=%d m=%d, set-up %.3fs\n", req.Algorithm, g.N(), g.M(), median(setup))

	var lat []float64
	var t0 tally
	mem0 := readRuntime()
	start := time.Now()
	for time.Since(start).Seconds() < seconds || len(lat)+t0.failed < minOps {
		ms, ok := op(g)
		if ok {
			t0.ok++
			lat = append(lat, ms)
		} else {
			t0.failed++
		}
	}
	wall := time.Since(start).Seconds()
	mem := readRuntime().since(mem0)
	r.tally.ok += t0.ok
	r.tally.failed += t0.failed
	samples := missLatencies(lat, t0.failed, wall*1000)
	p50, err := percentile(samples, 0.5)
	if err != nil {
		return nil, err
	}
	ops := t0.ok + t0.failed
	fmt.Fprintf(os.Stderr, "perfbench: %d ops in %.1fs, p50 %.1f ms, op time quartiles %.0f ms\n", ops, wall, p50, quartiles(lat))

	r.set("latency_p50_ms", p50, "ms")
	r.set("edges_per_s", float64(g.M()*t0.ok)/wall, "1/s")
	r.set("goodput_per_s", float64(t0.ok)/wall, "1/s")
	r.set("ok_frac", r.tally.okFrac(), "frac")
	if last != nil {
		r.set("forests", float64(last.Decomposition.NumForests), "count")
		r.set("rounds", float64(last.Decomposition.Rounds), "count")
	}
	r.set("setup_s", median(setup), "s")
	r.set("runtime.peak_rss_mb", selfPeakRSSMB(), "MB")
	if !traced {
		return r, nil
	}

	r.layers = true
	r.set("runtime.alloc_mb_per_op", mem.allocBytes/1e6/float64(ops), "MB")
	r.set("runtime.gc_frac", mem.gcFrac(), "frac")
	// A closed loop offers its next op when the last returns: offered and
	// achieved rates are one, and nothing can run late.
	r.set("load.offered_per_s", float64(ops)/wall, "1/s")
	r.set("load.achieved_per_s", float64(ops)/wall, "1/s")
	r.set("load.lag_p99_ms", 0, "ms")
	if last != nil {
		msgs, bits := phaseTraffic(last.Decomposition.Phases)
		r.set("dist.msgs", float64(msgs), "count")
		r.set("dist.bits", float64(bits), "count")
	}
	if err := tracedBatch(ctx, r, w.pipeline, encoded, req, last, p50); err != nil {
		return nil, err
	}
	return r, nil
}

// tracedBatch runs the rebuilt pipeline tracedPasses times, checks it
// against Run's result bit for bit, and reports the per-layer means.
func tracedBatch(ctx context.Context, r *result, pipeline pipelineFunc, encoded []byte, req nwforest.Request, want *nwforest.Result, untracedP50 float64) error {
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	layerMs, shares := map[string][]float64{}, map[string][]float64{}
	var walls, ndMs, coverage []float64
	var tr *tracer
	for pass := 0; pass < tracedPasses; pass++ {
		tr = &tracer{}
		start := time.Now()
		var g *graph.Graph
		if err := tr.time("graph.decode", func() (err error) {
			g, _, err = graph.DecodeAuto(bytes.NewReader(encoded))
			return err
		}); err != nil {
			return err
		}
		res, err := pipeline(ctx, g, req, tr)
		if err != nil {
			return fmt.Errorf("traced pipeline: %w", err)
		}
		var enc []byte
		tr.time("algo.encode", func() (err error) { enc, err = json.Marshal(res); return err })
		wall := msSince(start) - tr.netdecompMs
		if !bytes.Equal(enc, wantJSON) {
			r.problem("traced pipeline's result differs from nwforest.Run's")
		}
		sp, err := splitOf(tr.spans, wall)
		if err != nil {
			return err
		}
		if sp.coverage < 0.9 {
			r.problem("timed layer calls cover %.1f%% of the traced pass, want >= 90%%", 100*sp.coverage)
		}
		for layer, ms := range sp.ms {
			layerMs[layer] = append(layerMs[layer], ms)
			shares[layer] = append(shares[layer], sp.share[layer])
		}
		walls = append(walls, wall)
		ndMs = append(ndMs, tr.netdecompMs)
		coverage = append(coverage, sp.coverage)
		r.set("algo.encode_kb", float64(len(enc))/1024, "KB")
	}
	wall := mean(walls)
	avg := func(layer string) float64 { return mean(layerMs[layer]) }
	share := func(layer string) float64 { return mean(shares[layer]) }
	// The untraced op is Run alone; the traced pass adds decode and encode.
	runWall := wall - avg("graph.decode") - avg("algo.encode")
	clustersMs := 0.0
	if avg("core") > 0 {
		clustersMs = avg("core") - mean(ndMs)
	}
	r.set("graph.decode_ms", avg("graph.decode"), "ms")
	r.set("core.algorithm2_ms", avg("core"), "ms")
	r.set("core.clusters_ms", clustersMs, "ms")
	r.set("netdecomp.ms", mean(ndMs), "ms")
	r.set("hpartition.ms", avg("hpartition"), "ms")
	r.set("verify.partial_ms", avg("verify.partial"), "ms")
	r.set("verify.forest_ms", avg("verify.forest"), "ms")
	r.set("verify.diameter_ms", avg("verify.diameter"), "ms")
	r.set("algo.encode_ms", avg("algo.encode"), "ms")
	r.set("core.share", clustersMs/wall, "frac")
	r.set("netdecomp.share", mean(ndMs)/wall, "frac")
	r.set("hpartition.share", share("hpartition"), "frac")
	r.set("verify.share", share("verify.partial")+share("verify.forest")+share("verify.diameter"), "frac")
	r.set("traced.coverage", mean(coverage), "frac")
	r.set("traced.overhead_frac", runWall/untracedP50-1, "frac")

	st := tr.stats
	attempts := st.Augmented + st.AugmentFail
	r.set("core.clusters", float64(st.Clusters), "count")
	r.set("core.augmented", float64(st.Augmented), "count")
	r.set("core.augment_fail", float64(st.AugmentFail), "count")
	r.set("core.useful_frac", ratio(float64(st.Augmented), float64(attempts)), "frac")
	r.set("core.mean_seq_len", ratio(float64(st.SumSeqLen), float64(st.Augmented)), "count")
	r.set("core.leftover_edges", float64(tr.leftover), "count")
	r.set("netdecomp.rounds", float64(tr.netdecompRounds), "count")
	coreRounds, hpRounds := phaseRounds(want.Decomposition.Phases)
	r.set("core.rounds", float64(coreRounds), "count")
	r.set("hpartition.rounds", float64(hpRounds), "count")
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phaseRounds sums the rounds charged to core's and hpartition's
// phases.
func phaseRounds(phases []dist.Phase) (core, hpart int) {
	for _, p := range phases {
		switch {
		case strings.HasPrefix(p.Name, "core/"):
			core += p.Rounds
		case strings.HasPrefix(p.Name, "hpartition/"):
			hpart += p.Rounds
		}
	}
	return core, hpart
}

// phaseTraffic sums the CONGEST traffic over phases.
func phaseTraffic(phases []dist.Phase) (msgs, bits int64) {
	for _, p := range phases {
		msgs += p.Messages
		bits += p.Bits
	}
	return msgs, bits
}
