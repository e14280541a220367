package service

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"nwforest"
	"nwforest/internal/algo"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
)

func encode(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreContentAddressing(t *testing.T) {
	st := NewStore(4, 0)
	data := encode(t, gen.ForestUnion(50, 2, 1))
	a, err := st.AddBytes(data, graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.AddBytes(data, graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("identical bytes got distinct IDs %q and %q", a.ID, b.ID)
	}
	if st.Stats().Graphs != 1 {
		t.Fatalf("store holds %d graphs, want 1", st.Stats().Graphs)
	}
	other, err := st.AddBytes(encode(t, gen.ForestUnion(50, 3, 1)), graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == a.ID {
		t.Fatal("different graphs share an ID")
	}
	if _, err := st.Get("sha256:nope"); err == nil {
		t.Fatal("Get of unknown ID succeeded")
	}
}

func TestStoreEvictionAndReparse(t *testing.T) {
	st := NewStore(1, 0) // room for a single warm graph
	a, err := st.AddBytes(encode(t, gen.ForestUnion(30, 2, 1)), graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBytes(encode(t, gen.ForestUnion(30, 3, 1)), graph.FormatAuto); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", stats.Evictions)
	}
	// The evicted graph is still servable from its retained bytes.
	g, err := st.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 30 {
		t.Fatalf("re-parsed graph has n=%d, want 30", g.N())
	}
	stats = st.Stats()
	if stats.Misses != 1 || stats.Reparses != 1 {
		t.Fatalf("misses=%d reparses=%d, want 1 and 1", stats.Misses, stats.Reparses)
	}
}

func TestStoreUploadRetentionBudget(t *testing.T) {
	a := encode(t, gen.ForestUnion(30, 2, 1))
	b := encode(t, gen.ForestUnion(30, 3, 1))
	// Budget fits either upload alone but not both.
	st := NewStore(4, int64(len(a)+len(b)/2))
	infoA, err := st.AddBytes(a, graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := st.AddBytes(b, graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.SourceEvictions != 1 || stats.Graphs != 1 {
		t.Fatalf("sourceEvictions=%d graphs=%d, want 1 and 1", stats.SourceEvictions, stats.Graphs)
	}
	if stats.RetainedBytes != int64(len(b)) {
		t.Fatalf("retainedBytes=%d, want %d", stats.RetainedBytes, len(b))
	}
	if _, err := st.Get(infoA.ID); err == nil {
		t.Fatal("oldest upload still servable after budget eviction")
	}
	if _, err := st.Get(infoB.ID); err != nil {
		t.Fatalf("newest upload lost: %v", err)
	}
	// A single upload above the budget is kept anyway.
	tiny := NewStore(4, 1)
	info, err := tiny.AddBytes(a, graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiny.Get(info.ID); err != nil {
		t.Fatalf("over-budget sole upload not retained: %v", err)
	}
}

// TestStoreUploadEvictionDropsWarmGraph checks that forgetting an
// upload also drops its parsed graph, so the warm set and its byte
// count hold only graphs the store can still serve.
func TestStoreUploadEvictionDropsWarmGraph(t *testing.T) {
	a := encode(t, gen.ForestUnion(30, 2, 1))
	b := gen.ForestUnion(30, 3, 1)
	st := NewStore(4, int64(len(a))) // room for a alone: adding b evicts it
	if _, err := st.AddBytes(a, graph.FormatAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBytes(encode(t, b), graph.FormatAuto); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.SourceEvictions != 1 || stats.Warm != 1 || stats.WarmBytes != b.Footprint() || stats.Evictions != 0 {
		t.Fatalf("sourceEvictions=%d warm=%d warmBytes=%d evictions=%d, want 1, 1, %d and 0",
			stats.SourceEvictions, stats.Warm, stats.WarmBytes, stats.Evictions, b.Footprint())
	}
}

func TestStoreFileBacked(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	data := encode(t, gen.ForestUnion(40, 2, 7))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := NewStore(1, 0)
	info, err := st.AddFile(path, graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	// Evict, then re-parse from disk.
	if _, err := st.AddBytes(encode(t, gen.ForestUnion(40, 3, 7)), graph.FormatAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(info.ID); err != nil {
		t.Fatal(err)
	}
	// A file that changed on disk must be reported, not served stale.
	if err := os.WriteFile(path, []byte("2 1\n0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBytes(encode(t, gen.ForestUnion(40, 4, 7)), graph.FormatAuto); err != nil {
		t.Fatal(err) // evict the file-backed graph again
	}
	if _, err := st.Get(info.ID); err == nil {
		t.Fatal("Get served a graph whose backing file changed")
	}
}

// TestMutateChildIDGolden pins the ID Mutate gives a fixed child of a
// fixed forest union. The ID is the SHA-256 of graph.Encode's bytes, so
// a drifted byte would give every derived graph a new address and orphan
// the graphs already persisted in data dirs. Both values were recorded
// with the fmt.Fprintf encoder.
func TestMutateChildIDGolden(t *testing.T) {
	st := NewStore(4, 0)
	parent, err := st.AddBytes(encode(t, gen.ForestUnion(64, 3, 1)), graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	child, err := st.Mutate(parent.ID, Mutation{Insert: [][2]int32{{0, 63}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ got, want string }{
		{parent.ID, "sha256:6be9577f344439dea1044d3fde41b5975f4d34812cb490a02d56ada142cf5805"},
		{child.ID, "sha256:2e5d3c1abcd410591e30d916268a39255f0e9cfee4c04508a77136a05dd9ead8"},
	} {
		if c.got != c.want {
			t.Errorf("ID %s, want %s", c.got, c.want)
		}
	}
}

// TestMutateChildMatchesSource checks that the graph Mutate warms (the
// derived graph, not a parse of its encoding) is the graph its retained
// bytes decode to, and that a re-parse after eviction serves the same.
func TestMutateChildMatchesSource(t *testing.T) {
	st := NewStore(1, 0) // room for a single warm graph
	parent, err := st.AddBytes(encode(t, gen.ForestUnion(200, 3, 5)), graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	child, err := st.Mutate(parent.ID, Mutation{Insert: [][2]int32{{0, 199}, {7, 8}}, Delete: []int32{0, 5, 17}})
	if err != nil {
		t.Fatal(err)
	}
	data, format, err := st.SourceData(child.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.DecodeFormat(bytes.NewReader(data), format)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		g, err := st.Get(child.ID)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != want.N() || !slices.Equal(g.Edges(), want.Edges()) {
			t.Fatalf("%s: Get returned n=%d m=%d, its source decodes to n=%d m=%d", when, g.N(), g.M(), want.N(), want.M())
		}
	}
	check("warm")
	if _, err := st.Get(parent.ID); err != nil { // evicts the child
		t.Fatal(err)
	}
	reparses := st.Stats().Reparses
	check("after eviction")
	if got := st.Stats().Reparses; got != reparses+1 {
		t.Fatalf("reparses %d, want %d: the child was not evicted and re-parsed", got, reparses+1)
	}
}

func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Close(ctx); err != nil {
			t.Error(err)
		}
	})
	return svc
}

func addGraph(t testing.TB, svc *Service, g *graph.Graph) string {
	t.Helper()
	info, err := svc.Store().AddBytes(encode(t, g), graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	return info.ID
}

func waitDone(t testing.TB, svc *Service, j *Job) JobSnapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap := svc.Wait(ctx, j)
	if !snap.State.terminal() {
		t.Fatalf("job %s still %s after wait", snap.ID, snap.State)
	}
	return snap
}

func TestSubmitRunsAndCaches(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	g := gen.ForestUnion(150, 3, 1)
	id := addGraph(t, svc, g)
	spec := JobSpec{GraphID: id, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 1}}

	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := waitDone(t, svc, j)
	if cold.State != JobDone || cold.Cached {
		t.Fatalf("cold run: state=%s cached=%v, want done and uncached", cold.State, cold.Cached)
	}
	if err := nwforest.Verify(g, cold.Result.Decomposition.Colors, cold.Result.Decomposition.NumForests); err != nil {
		t.Fatal(err)
	}

	j2, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	hot := waitDone(t, svc, j2)
	if hot.State != JobDone || !hot.Cached {
		t.Fatalf("repeat run: state=%s cached=%v, want done and cached", hot.State, hot.Cached)
	}
	// Determinism across cold and cached paths: bit-identical colors.
	for i, c := range cold.Result.Decomposition.Colors {
		if hot.Result.Decomposition.Colors[i] != c {
			t.Fatalf("cached colors diverge at edge %d", i)
		}
	}
	if s := svc.Stats(); s.Results.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", s.Results.Hits)
	}

	// A different seed is a different computation, not a hit.
	spec.Options.Seed = 2
	j3, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, svc, j3); snap.Cached {
		t.Fatal("different seed served from cache")
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	ok := nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}
	bad := []JobSpec{
		{GraphID: id, Algorithm: "frobnicate", Options: ok},
		{GraphID: id, Algorithm: "decompose"},                                      // alpha and eps missing
		{GraphID: id, Algorithm: "decompose", Options: nwforest.Options{Alpha: 2}}, // eps missing
		{GraphID: id, Algorithm: "decompose", Options: nwforest.Options{Eps: 0.5}}, // alpha missing
		{GraphID: id, Algorithm: "stars-list24", Options: ok},                      // alphaStar missing
		{GraphID: id, Algorithm: "be", Options: nwforest.Options{Eps: 0.5}},        // no bound at all
		{GraphID: id, Algorithm: "decompose", Options: ok, AlphaStar: -1},
		{GraphID: id, Algorithm: "list", Options: ok, PaletteSize: -1},
		// Oversized parameters would commission giant allocations.
		{GraphID: id, Algorithm: "list", Options: ok, PaletteSize: 2_000_000_000},
		{GraphID: id, Algorithm: "list", Options: nwforest.Options{Alpha: 2_000_000_000, Eps: 0.5}},
		{GraphID: id, Algorithm: "stars-list24", Options: ok, AlphaStar: 2_000_000_000},
		{GraphID: id, Algorithm: "decompose", Options: nwforest.Options{Alpha: 2, Eps: 1e300}},
	}
	for i, sp := range bad {
		if _, err := svc.Submit(sp); err == nil {
			t.Errorf("bad spec %d (%s) accepted", i, sp.Algorithm)
		}
	}
	if _, err := svc.Submit(JobSpec{GraphID: "sha256:nope", Algorithm: "decompose", Options: ok}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: err = %v, want ErrUnknownGraph", err)
	}
	// Parameterless algorithms need no options at all.
	j, err := svc.Submit(JobSpec{GraphID: id, Algorithm: "arboricity"})
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, svc, j); snap.State != JobDone || snap.Result.Alpha != 2 {
		t.Fatalf("arboricity job: %+v", snap)
	}
}

// blockUntilCanceled parks algorithm execution until the job context is
// canceled, standing in for a long decomposition.
func blockUntilCanceled(ctx context.Context, _ *graph.Graph, _ JobSpec) (*JobResult, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestCancelRunningJob(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	svc.execHook = blockUntilCanceled
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	j, err := svc.Submit(JobSpec{GraphID: id, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Let the worker pick it up, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for j.State() == JobQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !svc.Cancel(j.ID()) {
		t.Fatal("Cancel reported failure")
	}
	snap := waitDone(t, svc, j)
	if snap.State != JobCanceled {
		t.Fatalf("state = %s, want canceled", snap.State)
	}
	if svc.Cancel(j.ID()) {
		t.Fatal("second Cancel reported success")
	}
}

func TestJobDeadline(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	svc.execHook = blockUntilCanceled
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	j, err := svc.Submit(JobSpec{GraphID: id, Algorithm: "decompose",
		Options:       nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1},
		TimeoutMillis: 20})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, svc, j)
	if snap.State != JobCanceled {
		t.Fatalf("state = %s, want canceled by deadline", snap.State)
	}
	if snap.Error == "" {
		t.Fatal("deadline cancellation recorded no error")
	}
}

func TestQueueBackpressure(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	svc.execHook = blockUntilCanceled
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	spec := func(seed uint64) JobSpec {
		return JobSpec{GraphID: id, Algorithm: "decompose",
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: seed}}
	}
	first, err := svc.Submit(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds the first job so the queue slot is free.
	deadline := time.Now().Add(5 * time.Second)
	for first.State() == JobQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Submit(spec(2)); err != nil {
		t.Fatal(err) // fills the single queue slot
	}
	if _, err := svc.Submit(spec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
}

func TestAllAlgorithmsRun(t *testing.T) {
	g := gen.SimpleForestUnion(60, 3, 9)
	for _, name := range Algorithms {
		spec := JobSpec{Algorithm: name, AlphaStar: 4,
			Options: nwforest.Options{Alpha: 4, Eps: 0.5, Seed: 3}}
		res, err := algo.Run(context.Background(), g, spec.request())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The advertised output shape (GET /algorithms capabilities) must
		// match what the job actually returns.
		d, ok := algo.Lookup(name)
		if !ok {
			t.Fatalf("%s listed but not registered", name)
		}
		switch d.Caps.Output {
		case algo.OutputOrientation:
			if res.Orientation == nil || len(res.Orientation.Phases) == 0 {
				t.Fatalf("%s: missing orientation or phase breakdown", name)
			}
		case algo.OutputScalar:
			if res.Alpha < 3 {
				t.Fatalf("%s: implausible result %+v", name, res)
			}
		default:
			if res.Decomposition == nil || res.Decomposition.NumForests == 0 {
				t.Fatalf("%s: missing decomposition", name)
			}
		}
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	base := JobSpec{GraphID: "sha256:aa", Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 1}}
	same := base
	if base.CacheKey() != same.CacheKey() {
		t.Fatal("identical specs got different keys")
	}
	// Everything "decompose" reads must split the key.
	vary := []func(*JobSpec){
		func(s *JobSpec) { s.GraphID = "sha256:bb" },
		func(s *JobSpec) { s.Algorithm = "stars" },
		func(s *JobSpec) { s.Options.Alpha = 4 },
		func(s *JobSpec) { s.Options.Eps = 0.25 },
		func(s *JobSpec) { s.Options.Seed = 2 },
		func(s *JobSpec) { s.Options.ReduceDiameter = true },
		func(s *JobSpec) { s.Options.Sampled = true },
	}
	for i, f := range vary {
		sp := base
		f(&sp)
		if sp.CacheKey() == base.CacheKey() {
			t.Errorf("variation %d did not change the cache key", i)
		}
	}
	// Parameters "decompose" ignores — and the run-bounding timeout —
	// must NOT split the key.
	for i, f := range []func(*JobSpec){
		func(s *JobSpec) { s.AlphaStar = 2 },
		func(s *JobSpec) { s.PaletteSize = 9 },
		func(s *JobSpec) { s.TimeoutMillis = 5000 },
	} {
		sp := base
		f(&sp)
		if sp.CacheKey() != base.CacheKey() {
			t.Errorf("ignored parameter %d changed the cache key", i)
		}
	}
	// A defaulted value spelled out explicitly is the same computation.
	be := JobSpec{GraphID: "sha256:aa", Algorithm: "be",
		Options: nwforest.Options{Alpha: 4, Eps: 0.5}}
	beExplicit := be
	beExplicit.AlphaStar = 4
	if be.CacheKey() != beExplicit.CacheKey() {
		t.Error("be: defaulted vs explicit alphaStar split the cache key")
	}
	list := JobSpec{GraphID: "sha256:aa", Algorithm: "list",
		Options: nwforest.Options{Alpha: 16, Eps: 0.5, Seed: 2}}
	listExplicit := list
	listExplicit.PaletteSize = 24 // = ceil(1.5 * 16), the default
	if list.CacheKey() != listExplicit.CacheKey() {
		t.Error("list: defaulted vs explicit paletteSize split the cache key")
	}
	// But be's seed is ignored while decompose's is not.
	beSeed := be
	beSeed.Options.Seed = 99
	if be.CacheKey() != beSeed.CacheKey() {
		t.Error("be: seed (unused by DecomposeBE) split the cache key")
	}
	// estimate-alpha ignores Options entirely.
	est := JobSpec{GraphID: "sha256:aa", Algorithm: "estimate-alpha"}
	estOpts := est
	estOpts.Options = nwforest.Options{Alpha: 7, Eps: 0.3, Seed: 9}
	if est.CacheKey() != estOpts.CacheKey() {
		t.Error("estimate-alpha: irrelevant Options split the cache key")
	}
}

func TestInflightDeduplication(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	svc.execHook = func(ctx context.Context, _ *graph.Graph, _ JobSpec) (*JobResult, error) {
		select {
		case <-release:
			return &JobResult{Alpha: 42}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	spec := JobSpec{GraphID: id, Algorithm: "estimate-alpha"}
	leader, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if follower.ID() == leader.ID() {
		t.Fatal("follower shares the leader's job ID")
	}
	// The follower holds no queue slot: a third distinct job still fits a
	// 1-deep... (queue depth 4 here, so just check the dedup counter).
	if s := svc.Stats(); s.Dedups != 1 {
		t.Fatalf("dedups = %d, want 1", s.Dedups)
	}
	close(release)
	ls := waitDone(t, svc, leader)
	fs := waitDone(t, svc, follower)
	if ls.State != JobDone || ls.Cached {
		t.Fatalf("leader: state=%s cached=%v", ls.State, ls.Cached)
	}
	if fs.State != JobDone || !fs.Cached || fs.Result.Alpha != 42 {
		t.Fatalf("follower: state=%s cached=%v result=%+v", fs.State, fs.Cached, fs.Result)
	}
	// After the leader finished, an identical submission is a plain cache
	// hit, not a dedup.
	again, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, svc, again); !snap.Cached {
		t.Fatal("post-completion submission not served from cache")
	}
	if s := svc.Stats(); s.Dedups != 1 {
		t.Fatalf("dedups = %d after completion, want still 1", s.Dedups)
	}
}

func TestFollowerBackpressure(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	svc.execHook = blockUntilCanceled
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	spec := JobSpec{GraphID: id, Algorithm: "estimate-alpha"}
	leader, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for leader.State() == JobQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err) // first follower fits the depth-1 budget
	}
	if _, err := svc.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second follower: err = %v, want ErrQueueFull", err)
	}
	// A finished follower frees its slot.
	svc.Cancel(leader.ID())
	snap := waitDone(t, svc, leader)
	if snap.State != JobCanceled {
		t.Fatalf("leader state = %s", snap.State)
	}
}

func TestInflightFollowerCanceledWithLeader(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	svc.execHook = blockUntilCanceled
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	spec := JobSpec{GraphID: id, Algorithm: "estimate-alpha"}
	leader, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Cancel(leader.ID()) {
		t.Fatal("leader cancel failed")
	}
	if snap := waitDone(t, svc, follower); snap.State != JobCanceled {
		t.Fatalf("follower state = %s, want canceled alongside its leader", snap.State)
	}
}

// TestCancelLeaderWithFollowerRepeated repeats the leader/follower
// cancel many times in one test: Cancel makes the terminal transition
// itself, so the watcher or worker woken by the canceled context can
// never take it first and record the context's error instead.
func TestCancelLeaderWithFollowerRepeated(t *testing.T) {
	const rounds = 500
	// A leader canceled while queued keeps its queue slot until the
	// worker pops it, so the queue must hold every round's leader.
	svc := newTestService(t, Config{Workers: 1, QueueDepth: rounds})
	svc.execHook = blockUntilCanceled
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	spec := JobSpec{GraphID: id, Algorithm: "estimate-alpha"}
	for i := 0; i < rounds; i++ {
		leader, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		follower, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !svc.Cancel(leader.ID()) {
			t.Fatalf("round %d: leader cancel failed (state %s, error %q)", i, leader.State(), leader.Snapshot().Error)
		}
		if snap := waitDone(t, svc, leader); snap.State != JobCanceled || snap.Error != "canceled by client" {
			t.Fatalf("round %d: leader %s with error %q, want canceled by client", i, snap.State, snap.Error)
		}
		if snap := waitDone(t, svc, follower); snap.State != JobCanceled {
			t.Fatalf("round %d: follower state = %s, want canceled alongside its leader", i, snap.State)
		}
	}
}

func TestResultCacheByteBudget(t *testing.T) {
	c := newResultCache(100, 1024)
	big := func(edges int) *JobResult {
		return &JobResult{Decomposition: &nwforest.Decomposition{Colors: make([]int32, edges)}}
	}
	c.put("a", big(100)) // ~256 + 400 bytes
	c.put("b", big(100))
	stats := c.stats()
	if stats.Evictions != 1 || stats.Size != 1 {
		t.Fatalf("evictions=%d size=%d, want 1 and 1 (budget 1024)", stats.Evictions, stats.Size)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("oldest entry survived the byte budget")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("newest entry evicted")
	}
	if stats.Bytes > 1024 {
		t.Fatalf("bytes=%d exceeds budget", stats.Bytes)
	}
	// A single over-budget entry is kept (never evict down to zero).
	c.put("huge", big(10000))
	if _, ok := c.get("huge"); !ok {
		t.Fatal("sole over-budget entry not retained")
	}
}

// TestFinishedJobRetention bounds the terminal jobs that stay pollable:
// past retainJobs entries or the result-cache byte budget the oldest
// terminal job is forgotten, while the newest and every queued or
// running job stay, and RetainedResultBytes is what the retained jobs
// pin (a cache hit 256 bytes, a computed job its result's size).
func TestFinishedJobRetention(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBytes int64
		hits     int // cache-hit jobs submitted after the computed one
		keep     int // how many of them stay
	}{
		{"entry bound", 0, retainJobs + 5, retainJobs},
		// The computed job's 536 bytes alone exceed this budget.
		{"byte bound", 2 * 256, 10, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := newTestService(t, Config{Workers: 1, ResultCacheBytes: tc.maxBytes})
			svc.execHook = func(ctx context.Context, g *graph.Graph, spec JobSpec) (*JobResult, error) {
				if spec.Options.Seed == 1 {
					return algo.Run(ctx, g, spec.request())
				}
				return blockUntilCanceled(ctx, g, spec)
			}
			id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
			submit := func(seed uint64) *Job {
				t.Helper()
				j, err := svc.Submit(JobSpec{GraphID: id, Algorithm: "decompose",
					Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: seed}})
				if err != nil {
					t.Fatal(err)
				}
				return j
			}
			checkBytes := func() {
				t.Helper()
				var want int64
				for _, snap := range svc.Jobs() {
					switch {
					case !snap.State.terminal():
					case snap.Cached:
						want += 256
					default:
						want += approxResultBytes(snap.Result)
					}
				}
				if got := svc.Stats().RetainedResultBytes; got != want {
					t.Fatalf("RetainedResultBytes = %d, retained terminal jobs pin %d", got, want)
				}
			}
			computed := submit(1)
			if snap := waitDone(t, svc, computed); snap.State != JobDone || snap.Cached {
				t.Fatalf("first job %s cached=%v, want computed", snap.State, snap.Cached)
			}
			if _, ok := svc.Get(computed.ID()); !ok {
				t.Fatalf("newest terminal job %s forgotten", computed.ID())
			}
			checkBytes()
			running := submit(2)
			waitForState(t, svc, running.ID(), JobRunning)
			queued := submit(3)
			hits := make([]*Job, tc.hits)
			for i := range hits {
				if hits[i] = submit(1); hits[i].State() != JobDone {
					t.Fatalf("hit %d is %s, want done on submit", i, hits[i].State())
				}
			}
			checkBytes()
			if got := svc.Stats().RetainedResultBytes; got != int64(tc.keep)*256 {
				t.Fatalf("RetainedResultBytes = %d, want %d hits of 256", got, tc.keep*256)
			}
			forgotten := append([]*Job{computed}, hits[:tc.hits-tc.keep]...)
			for _, j := range forgotten {
				if _, ok := svc.Get(j.ID()); ok {
					t.Fatalf("job %s still pollable past the bound", j.ID())
				}
			}
			for _, j := range append([]*Job{running, queued}, hits[tc.hits-tc.keep:]...) {
				if _, ok := svc.Get(j.ID()); !ok {
					t.Fatalf("job %s (%s) forgotten", j.ID(), j.State())
				}
			}
			svc.Cancel(running.ID())
			waitDone(t, svc, running)
			svc.Cancel(queued.ID())
			waitDone(t, svc, queued)
			checkBytes()
			if _, ok := svc.Get(queued.ID()); !ok {
				t.Fatalf("newest terminal job %s forgotten", queued.ID())
			}
		})
	}
}

// BenchmarkCacheHitSubmit submits an already-cached spec and waits for
// the job: the path most served requests take (register, finish, then
// settle into the trace ring, the history and retention).
func BenchmarkCacheHitSubmit(b *testing.B) {
	svc := newTestService(b, Config{Workers: 1})
	id := addGraph(b, svc, gen.ForestUnion(100, 2, 5))
	spec := JobSpec{GraphID: id, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}}
	j, err := svc.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	if snap := waitDone(b, svc, j); snap.State != JobDone {
		b.Fatalf("warm-up job %s: %s", snap.State, snap.Error)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := svc.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	svc, err := Open(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Store().AddBytes([]byte("2 1\n0 1\n"), graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Submit(JobSpec{GraphID: id.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 1, Eps: 0.5, Seed: 1}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
