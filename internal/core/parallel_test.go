package core

import (
	"context"
	"reflect"
	"testing"

	"nwforest/internal/forest"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
)

// runA2 runs Algorithm 2 with a shared full palette and the given worker
// count, returning colors, leftover, and stats.
func runA2(t *testing.T, g *graph.Graph, rule CutRule, seed uint64, workers, rPrime, r int) ([]int32, []int32, Algo2Stats) {
	t.Helper()
	res, err := RunAlgorithm2(context.Background(), g, Algo2Options{
		Palettes: fullPalette(g.M(), 6),
		Alpha:    4,
		Eps:      0.5,
		Rule:     rule,
		Seed:     seed,
		RPrime:   rPrime,
		R:        r,
		Workers:  workers,
	}, nil)
	if err != nil {
		t.Fatalf("RunAlgorithm2(workers=%d): %v", workers, err)
	}
	return res.State.Colors(), res.Leftover, res.Stats
}

// TestParallelBitIdenticalToSequential is the parallel core's contract:
// for every rule, seed, radius regime (many small clusters vs few big
// ones), and worker count, the parallel schedule must reproduce the
// sequential colors, the leftover edge ORDER (it feeds the leftover
// subgraph construction downstream), and the stats exactly.
func TestParallelBitIdenticalToSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":  gen.Grid(40, 40),
		"gnm":   gen.Gnm(2500, 7500, 17),
		"ba":    gen.BarabasiAlbert(1500, 4, 23),
		"union": gen.ForestUnion(1200, 5, 31),
	}
	for name, g := range graphs {
		for _, rule := range []CutRule{CutModDepth, CutSampled} {
			for _, radii := range [][2]int{{0, 0}, {2, 6}} {
				var wantColors, wantLeft []int32
				var wantStats Algo2Stats
				for _, workers := range []int{1, 2, 3, 8} {
					seed := uint64(5)
					colors, left, stats := runA2(t, g, rule, seed, workers, radii[0], radii[1])
					if workers == 1 {
						wantColors, wantLeft, wantStats = colors, left, stats
						continue
					}
					if !reflect.DeepEqual(colors, wantColors) {
						t.Fatalf("%s rule=%d radii=%v workers=%d: colors diverged", name, rule, radii, workers)
					}
					if !reflect.DeepEqual(left, wantLeft) {
						t.Fatalf("%s rule=%d radii=%v workers=%d: leftover diverged (%d vs %d edges)",
							name, rule, radii, workers, len(left), len(wantLeft))
					}
					if stats != wantStats {
						t.Fatalf("%s rule=%d radii=%v workers=%d: stats diverged\n got %+v\nwant %+v",
							name, rule, radii, workers, stats, wantStats)
					}
				}
			}
		}
	}
}

// TestParallelEndToEndDecomposition checks the full pipeline — retries,
// leftover recoloring, verification — is worker-count invariant.
func TestParallelEndToEndDecomposition(t *testing.T) {
	g := gen.Grid(60, 60)
	var want *FDResult
	for _, workers := range []int{1, 4} {
		res, err := ForestDecomposition(context.Background(), g, FDOptions{
			Alpha: 2, Eps: 0.5, Seed: 9, RPrime: 2, R: 6, Workers: workers,
		}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			want = res
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("workers=%d: end-to-end result diverged", workers)
		}
	}
}

// TestParallelListFD covers the list-palette path.
func TestParallelListFD(t *testing.T) {
	g := gen.Gnm(2200, 6600, 3)
	pal := fullPalette(g.M(), 14)
	var want *LFDResult
	for _, workers := range []int{1, 4} {
		res, err := ListForestDecomposition(context.Background(), g, LFDOptions{
			Palettes: pal, Alpha: 4, Eps: 0.6, Seed: 7, Workers: workers,
		}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			want = res
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("workers=%d: list FD diverged", workers)
		}
	}
}

// TestA2PoolPanicPropagation pins the pool's panic contract: a panic in
// a pooled job is re-raised on the calling goroutine, and the pool
// survives for a subsequent batch.
func TestA2PoolPanicPropagation(t *testing.T) {
	g := gen.Grid(4, 4)
	p := newA2Pool(4, forest.New(g))
	defer p.close()

	caught := func() (r any) {
		defer func() { r = recover() }()
		p.runBatch(16, func(w, idx int) {
			if idx == 11 {
				panic("boom-11")
			}
		})
		return nil
	}()
	if caught != "boom-11" {
		t.Fatalf("recovered %v, want boom-11", caught)
	}

	// The pool must still dispatch a full batch afterwards.
	hits := make([]int32, 16)
	p.runBatch(16, func(w, idx int) { hits[idx]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("after panic, job %d ran %d times", i, h)
		}
	}
}

// TestA2PoolZeroAllocSteadyState: batch dispatch over the persistent
// workers must not allocate once warm — the per-worker arenas exist so
// the cluster phase's steady state stays allocation-free.
func TestA2PoolZeroAllocSteadyState(t *testing.T) {
	g := gen.Grid(8, 8)
	p := newA2Pool(4, forest.New(g))
	defer p.close()
	var sink int64
	body := func(w, idx int) { sink += int64(w + idx) }
	p.runBatch(64, body) // warm up channel/queue internals
	allocs := testing.AllocsPerRun(50, func() { p.runBatch(64, body) })
	if allocs > 0 {
		t.Fatalf("pool dispatch allocates %.1f per batch, want 0", allocs)
	}
	_ = sink
}
