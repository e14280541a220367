package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"nwforest/internal/dist"
	"nwforest/internal/forest"
	"nwforest/internal/graph"
	"nwforest/internal/hpartition"
	"nwforest/internal/netdecomp"
	"nwforest/internal/rng"
	"nwforest/internal/verify"
)

// Algo2Options configures Algorithm 2 (the network-decomposition driven
// local augmentation of Section 4).
type Algo2Options struct {
	// Palettes gives the usable colors of every edge; for plain forest
	// decomposition use ceil((1+eps)*alpha) shared colors.
	Palettes [][]int32
	// Alpha is the globally known arboricity bound.
	Alpha int
	// Eps is the excess-color parameter epsilon.
	Eps float64
	// Rule selects the CUT implementation; default CutModDepth.
	Rule CutRule
	// Seed drives all randomness.
	Seed uint64
	// RPrime and R override the radii R' and R (0 = auto from Eps, n).
	RPrime, R int
	// Workers bounds the goroutines of the per-cluster phase: 0 selects
	// GOMAXPROCS on graphs with at least parallelClusterThreshold
	// vertices (sequential below it), 1 forces the sequential path, any
	// larger value forces a pool of that size. Only CutModDepth with
	// R ≥ 2 runs the pool; CutSampled always takes the sequential path.
	// Every setting produces bit-identical results — same colors, same
	// leftover order, same stats — so Workers only affects wall-clock
	// time. Same-class clusters of the network decomposition are at
	// G-distance > 2(R+R'), so their radius-(R+R') balls are
	// vertex-disjoint, and after the mod-depth CUT each ball contains
	// every read and write of its cluster's augmentation (see algo2Run).
	Workers int
	// Checkpoint, when non-nil, is offered a servable snapshot at every
	// phase cut (run start and after each network-decomposition class,
	// next to the core/algorithm2-class round charge). It never touches
	// the run's randomness or cost, so results stay bit-identical.
	Checkpoint *Checkpointer
}

// parallelClusterThreshold is the vertex count above which Workers == 0
// goes parallel.
const parallelClusterThreshold = 2048

// Algo2Stats instruments a run for the experiment harness.
type Algo2Stats struct {
	R, RPrime    int
	Unit         int
	Classes      int
	Clusters     int
	Augmented    int
	AugmentFail  int
	RemovedByCut int
	MaxSeqLen    int
	MaxSeqRadius int
	SumSeqLen    int
}

// Algo2Result is the outcome of Algorithm 2: a partial list forest
// decomposition (the colored edges form forests per color) plus the
// leftover edges that were removed by CUT or failed augmentation; the
// leftover subgraph is recolored with reserve colors by the callers
// (Theorem 4.6 / 4.10).
type Algo2Result struct {
	State    *forest.State
	Leftover []int32
	Stats    Algo2Stats
}

// autoRadii picks practical radii: the paper uses R' = Theta(log n / eps)
// (Theorem 3.2) and R per Theorem 4.2; the constants below keep the balls
// meaningfully local at benchmark sizes while failures (which the theory
// excludes at its own constants) fall back to the leftover set.
func autoRadii(n int, eps float64) (rPrime, r int) {
	ln := math.Log(float64(n + 2))
	rPrime = int(math.Ceil(ln / eps))
	if rPrime < 2 {
		rPrime = 2
	}
	r = 2*int(math.Ceil(ln/eps)) + 2
	if r < 6 {
		r = 6
	}
	return rPrime, r
}

// RunAlgorithm2 executes Algorithm 2 of the paper: a Linial-Saks network
// decomposition of the power graph G^{2(R+R')} schedules the clusters in
// O(log n) classes; each cluster first CUTs the monochromatic paths in
// its annulus, then colors its incident uncolored edges by local
// augmenting sequences. Rounds are charged to cost.
//
// Under CutModDepth the per-cluster work of a class runs on a bounded
// worker pool when opts.Workers permits (the paper's clusters of one
// class are independent, and their read/write footprints are
// vertex-disjoint balls), bit-identically to the sequential path.
//
// ctx is checked once per cluster, so cancellation interrupts the
// augmentation phase mid-class rather than only between phases.
func RunAlgorithm2(ctx context.Context, g *graph.Graph, opts Algo2Options, cost *dist.Cost) (*Algo2Result, error) {
	if len(opts.Palettes) != g.M() {
		return nil, fmt.Errorf("core: %d palettes for %d edges", len(opts.Palettes), g.M())
	}
	if opts.Rule == 0 {
		opts.Rule = CutModDepth
	}
	if opts.Rule != CutModDepth && opts.Rule != CutSampled {
		return nil, fmt.Errorf("core: unknown cut rule %d", opts.Rule)
	}
	rPrime, r := opts.RPrime, opts.R
	if rPrime == 0 || r == 0 {
		autoRP, autoR := autoRadii(g.N(), opts.Eps)
		if rPrime == 0 {
			rPrime = autoRP
		}
		if r == 0 {
			r = autoR
		}
	}
	unit := 2 * (r + rPrime)
	// The network decomposition below is not ctx-aware; refuse an
	// already-expired context here rather than burning it (this also
	// keeps anytime runs from checkpointing work nobody waits for).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	src := rng.New(opts.Seed)

	st := forest.New(g)
	res := &Algo2Result{State: st}
	res.Stats.R, res.Stats.RPrime, res.Stats.Unit = r, rPrime, unit
	if opts.Checkpoint != nil {
		// Checkpoint 0: the all-uncolored state completes to a pure
		// greedy decomposition, so a deadline firing inside the (not
		// ctx-aware) network decomposition still has a result to serve.
		opts.Checkpoint.Offer(st.Colors(), "algorithm2/start")
	}
	if g.M() == 0 {
		return res, nil
	}

	nd, err := netdecomp.Decompose(g, unit, src.Split(1).Uint64(), cost)
	if err != nil {
		return nil, fmt.Errorf("core: network decomposition: %w", err)
	}
	res.Stats.Classes = nd.NumClasses

	// CutSampled needs a global 3α-orientation and load counters.
	var sampler *sampleCutState
	if opts.Rule == CutSampled {
		thr := 3 * opts.Alpha
		if thr < 2 {
			thr = 2
		}
		hp, err := hpartition.Partition(ctx, g, thr, 8*g.N()+16, cost)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("core: sample-cut orientation: %w", err)
		}
		o := hpartition.AcyclicOrientation(g, hp, cost)
		loadCap := opts.Alpha
		if loadCap < 1 {
			loadCap = 1
		}
		// Proposition 4.3 with eta = 1/2: p = K*alpha*log(n) / (eta*R).
		p := math.Min(1, float64(opts.Alpha)*math.Log(float64(g.N()+2))/(0.5*float64(r)))
		sampler = newSampleCutState(hpartition.OutEdges(g, o), loadCap, p)
	}

	rn := &algo2Run{
		g:         g,
		st:        st,
		palettes:  opts.Palettes,
		rule:      opts.Rule,
		r:         r,
		rPrime:    rPrime,
		sampler:   sampler,
		src:       src,
		res:       res,
		processed: make([]bool, g.M()),
		removed:   make([]bool, g.M()),
		innerMark: make([]uint32, g.N()),
		outerMark: make([]uint32, g.N()),
	}
	workers := 1
	if opts.Rule == CutModDepth && r >= 2 {
		workers = resolveWorkers(opts.Workers, g.N())
	}
	logN := int(math.Ceil(math.Log2(float64(g.N() + 2))))

	if workers > 1 {
		rn.pool = newA2Pool(workers, st)
		defer rn.pool.close()
		rn.owner = make([]int32, g.N())
		rn.ownerEp = make([]uint32, g.N())
	} else {
		rn.seqArena = newAlgo2Arena(st)
	}
	for class := int32(0); class < int32(nd.NumClasses); class++ {
		clusters := nd.Clusters(class)
		centers := make([]int32, 0, len(clusters))
		for center := range clusters {
			centers = append(centers, center)
		}
		sortInt32(centers) // deterministic processing order
		var err error
		if workers > 1 {
			err = rn.runClassParallel(ctx, centers, clusters)
		} else {
			err = rn.runClassSequential(ctx, centers, clusters)
		}
		if err != nil {
			return nil, err
		}
		// All clusters of a class run in parallel; the class costs the
		// weak-diameter simulation bound O((R+R') log n).
		cost.Charge(2*(r+rPrime)*logN, "core/algorithm2-class")
		if opts.Checkpoint != nil {
			opts.Checkpoint.Offer(st.Colors(), fmt.Sprintf("algorithm2/class-%d", class))
		}
	}
	return res, nil
}

// resolveWorkers maps the Workers option to a concrete pool size.
func resolveWorkers(opt, n int) int {
	if opt == 1 || opt < 0 {
		return 1
	}
	if opt > 1 {
		return opt
	}
	if n < parallelClusterThreshold {
		return 1
	}
	if w := runtime.GOMAXPROCS(0); w > 1 {
		return w
	}
	return 1
}

// algo2Run is the mutable state of one RunAlgorithm2 call shared across
// classes and (in the parallel path) across workers. The concurrency
// invariant: same-class clusters only touch st/processed/removed at
// indices inside their own vertex-disjoint ball footprints, so parallel
// workers never write (or read-write) a shared location.
//
// For st that includes the rooted forests, whose links reroot whole
// trees: every tree an augmentation touches must lie inside the outer
// ball. The mod-depth CUT confines it. A c-path from the inner ball
// (radius R') to a vertex beyond the outer ball (radius R+R') climbs
// through every distance R'+1, ..., R'+R, so its last stretch crosses
// at least R−1 annulus edges inside one monochromatic annulus
// component. After the cut every annulus component has height at most
// N−1 for N = max(1, floor((R−2)/2)), so diameter at most R−4 (0 when
// N = 1), and for R ≥ 2 no such path survives: every c-tree of an
// inner vertex lies inside the outer ball. Sequence edges join inner
// vertices, so cuts split and links join only such trees, and the trees
// stay inside. Queries read the parent edges of u, v and within
// vertices only. CutSampled confines the trees only with high
// probability, and R = 1 not at all, so both run sequentially.
type algo2Run struct {
	g         *graph.Graph
	st        *forest.State
	palettes  [][]int32
	rule      CutRule
	r, rPrime int
	sampler   *sampleCutState
	src       *rng.Source
	res       *Algo2Result

	processed []bool
	removed   []bool

	// Ball membership marks: innerMark[v] == job.ep iff v is in the
	// cluster's inner (radius R') ball, outerMark likewise for the
	// radius R+R' ball. Same-class balls are disjoint, so concurrent
	// stamping never writes one slot twice.
	innerMark []uint32
	outerMark []uint32
	clusterEp uint32

	// Conflict stamping (parallel path): owner[v] is the class-local
	// cluster index that claimed v this round, valid iff ownerEp[v] ==
	// stampEp. Any doubly-claimed vertex demotes both claimants to the
	// sequential pass — the safety net that turns the disjointness
	// proof into a runtime check.
	owner   []int32
	ownerEp []uint32
	stampEp uint32

	pool     *a2pool
	seqArena *algo2Arena

	// jobs is the parallel path's per-class job slice, reused across
	// classes so ball/annulus/leftover buffers amortize to zero.
	jobs []clusterJob
}

// clusterJob is the per-cluster unit of work and its collected results.
type clusterJob struct {
	center  int32
	members []int32
	ep      uint32

	// ball holds the radius-(R+R') ball in BFS visit order; the first
	// innerEnd entries are the inner (radius R') ball. annulus is the
	// sorted ball minus inner.
	ball     []int32
	innerEnd int
	annulus  []int32

	conflicted bool

	// leftover collects this cluster's removed edges in exactly the
	// order the sequential path would append them to res.Leftover:
	// CUT removals first, then augmentation failures in member order.
	leftover []int32
	stats    clusterStats
}

type clusterStats struct {
	clusters     int
	augmented    int
	augmentFail  int
	removedByCut int
	maxSeqLen    int
	maxSeqRadius int
	sumSeqLen    int
}

// algo2Arena is one worker's private scratch: a Searcher (whose
// forest.Scratch also backs the CUT tree queries) and an epoch-stamped
// BFS scratch for the ball computations. Arenas are created once per
// run, so the steady state of the cluster phase allocates only results.
type algo2Arena struct {
	searcher *Searcher
	bfs      graph.BFSEpochScratch
}

func newAlgo2Arena(st *forest.State) *algo2Arena {
	return &algo2Arena{searcher: NewSearcher(st)}
}

// allocEpochs reserves count consecutive cluster epochs, clearing the
// mark arrays on uint32 wraparound so stale stamps cannot collide.
func (rn *algo2Run) allocEpochs(count int) uint32 {
	if rn.clusterEp > ^uint32(0)-uint32(count) {
		clear(rn.innerMark)
		clear(rn.outerMark)
		rn.clusterEp = 0
	}
	base := rn.clusterEp + 1
	rn.clusterEp += uint32(count)
	return base
}

// computeBall fills job.ball/innerEnd/annulus by one epoch-stamped BFS
// from the members, classifying by distance.
func (rn *algo2Run) computeBall(job *clusterJob, a *algo2Arena) {
	job.ball = job.ball[:0]
	job.annulus = job.annulus[:0]
	rn.g.BFSEpochWith(&a.bfs, job.members, rn.r+rn.rPrime, func(v int32, d int) bool {
		job.ball = append(job.ball, v)
		if d > rn.rPrime {
			job.annulus = append(job.annulus, v)
		}
		return true
	})
	job.innerEnd = len(job.ball) - len(job.annulus)
	sortInt32(job.annulus)
}

// stampMarks publishes the job's ball membership under its epoch.
func (rn *algo2Run) stampMarks(job *clusterJob) {
	ep := job.ep
	for i, v := range job.ball {
		rn.outerMark[v] = ep
		if i < job.innerEnd {
			rn.innerMark[v] = ep
		}
	}
}

// processCluster runs one cluster's CUT + augmentation, assuming its
// marks are stamped. Under CutModDepth all writes land inside the
// cluster's ball, at edges and trees no concurrently-running cluster
// can observe.
//
// ctx is observed once per augmentation walk: a single cluster can hold
// nearly the whole graph (dense forest unions decompose into a handful
// of clusters), so the per-cluster checks in the class schedulers alone
// would let one cluster overrun a deadline by the full phase length.
// Aborting between walks leaves st a valid partial coloring — Apply only
// ever lands complete sequences — so anytime checkpoints stay servable.
func (rn *algo2Run) processCluster(ctx context.Context, job *clusterJob, a *algo2Arena) error {
	ep := job.ep
	inInner := func(v int32) bool { return rn.innerMark[v] == ep }
	inOuter := func(v int32) bool { return rn.outerMark[v] == ep }

	// CUT the annulus (Theorem 4.2).
	var cut []int32
	switch rn.rule {
	case CutModDepth:
		cut = cutModDepth(rn.st, a.searcher.fsc, job.annulus, rn.r, rn.src.Split(uint64(job.center)+7))
	case CutSampled:
		cut = rn.sampler.cut(rn.st, job.annulus, rn.src.Split(uint64(job.center)+7))
	}
	for _, id := range cut {
		if !rn.removed[id] {
			rn.removed[id] = true
			job.leftover = append(job.leftover, id)
			job.stats.removedByCut++
		}
	}

	// Color the uncolored edges incident to the cluster by local
	// augmentation (lines 6-7 of Algorithm 2).
	for _, v := range job.members {
		for _, adj := range rn.g.Adj(v) {
			id := adj.Edge
			if rn.processed[id] || rn.removed[id] {
				continue
			}
			rn.processed[id] = true
			if rn.st.Color(id) != verify.Uncolored {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			seq, stats := a.searcher.FindAugmenting(rn.palettes, id, inInner, inOuter)
			if seq == nil {
				rn.removed[id] = true
				job.leftover = append(job.leftover, id)
				job.stats.augmentFail++
				continue
			}
			Apply(rn.st, seq)
			job.stats.augmented++
			job.stats.sumSeqLen += stats.Length
			if stats.Length > job.stats.maxSeqLen {
				job.stats.maxSeqLen = stats.Length
			}
			if stats.Radius > job.stats.maxSeqRadius {
				job.stats.maxSeqRadius = stats.Radius
			}
		}
	}
	job.stats.clusters++
	return nil
}

// mergeJob folds one finished cluster into the result, in center order.
func (rn *algo2Run) mergeJob(job *clusterJob) {
	s := &rn.res.Stats
	s.Clusters += job.stats.clusters
	s.Augmented += job.stats.augmented
	s.AugmentFail += job.stats.augmentFail
	s.RemovedByCut += job.stats.removedByCut
	s.SumSeqLen += job.stats.sumSeqLen
	if job.stats.maxSeqLen > s.MaxSeqLen {
		s.MaxSeqLen = job.stats.maxSeqLen
	}
	if job.stats.maxSeqRadius > s.MaxSeqRadius {
		s.MaxSeqRadius = job.stats.maxSeqRadius
	}
	rn.res.Leftover = append(rn.res.Leftover, job.leftover...)
}

// runClassSequential processes a class's clusters one by one in center
// order — the reference schedule the parallel path is measured against.
func (rn *algo2Run) runClassSequential(ctx context.Context, centers []int32, clusters map[int32][]int32) error {
	var job clusterJob
	for _, center := range centers {
		if err := ctx.Err(); err != nil {
			return err
		}
		job.center = center
		job.members = clusters[center]
		job.ep = rn.allocEpochs(1)
		job.leftover = job.leftover[:0]
		job.stats = clusterStats{}
		job.conflicted = false
		rn.computeBall(&job, rn.seqArena)
		rn.stampMarks(&job)
		if err := rn.processCluster(ctx, &job, rn.seqArena); err != nil {
			return err
		}
		rn.mergeJob(&job)
	}
	return nil
}

// runClassParallel is the bit-identical parallel schedule:
//
//	A. every cluster's ball is computed concurrently (pure reads);
//	B. footprints are claim-stamped sequentially in center order; any
//	   overlap demotes both clusters to the sequential pass;
//	C. the clean clusters — provably disjoint from everyone — run their
//	   CUT + augmentation concurrently on the pool;
//	C2. the demoted clusters run sequentially in center order;
//	D. per-cluster leftovers and stats merge sequentially in center
//	   order, reproducing the sequential append order exactly.
//
// Disjointness makes every cluster's work commute with the others', so
// phases C/C2 produce the same State as the fully sequential
// interleaving; D restores the order of the shared accumulators.
func (rn *algo2Run) runClassParallel(ctx context.Context, centers []int32, clusters map[int32][]int32) error {
	for len(rn.jobs) < len(centers) {
		rn.jobs = append(rn.jobs, clusterJob{})
	}
	jobs := rn.jobs[:len(centers)]
	base := rn.allocEpochs(len(centers))
	for i, center := range centers {
		j := &jobs[i]
		j.center, j.members, j.ep = center, clusters[center], base+uint32(i)
		j.conflicted = false
		j.leftover = j.leftover[:0]
		j.stats = clusterStats{}
	}
	// Phase A: ball computation, embarrassingly parallel.
	rn.pool.runBatch(len(jobs), func(w, i int) {
		if ctx.Err() != nil {
			return
		}
		rn.computeBall(&jobs[i], rn.pool.arenas[w])
	})
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase B: claim footprints in center order; overlaps go sequential.
	rn.stampEp++
	if rn.stampEp == 0 {
		clear(rn.ownerEp)
		rn.stampEp = 1
	}
	for i := range jobs {
		for _, v := range jobs[i].ball {
			if rn.ownerEp[v] == rn.stampEp {
				jobs[i].conflicted = true
				jobs[rn.owner[v]].conflicted = true
				continue
			}
			rn.ownerEp[v] = rn.stampEp
			rn.owner[v] = int32(i)
		}
	}
	clean := make([]int, 0, len(jobs))
	for i := range jobs {
		if !jobs[i].conflicted {
			rn.stampMarks(&jobs[i])
			clean = append(clean, i)
		}
	}

	// Phase C: clean clusters in parallel.
	rn.pool.runBatch(len(clean), func(w, k int) {
		if ctx.Err() != nil {
			return
		}
		// An aborted worker just stops early; the ctx check after the
		// batch turns the abort into the error return.
		_ = rn.processCluster(ctx, &jobs[clean[k]], rn.pool.arenas[w])
	})
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase C2: conflicted clusters sequentially, restamped one at a
	// time so overlapping marks never coexist.
	for i := range jobs {
		if !jobs[i].conflicted {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		jobs[i].ep = rn.allocEpochs(1)
		rn.stampMarks(&jobs[i])
		if err := rn.processCluster(ctx, &jobs[i], rn.pool.arenas[0]); err != nil {
			return err
		}
	}

	// Phase D: deterministic merge in center order.
	for i := range jobs {
		rn.mergeJob(&jobs[i])
	}
	return nil
}

func sortInt32(xs []int32) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
