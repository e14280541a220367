package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwforest"
	"nwforest/internal/algo"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
)

// registeredJob builds and registers a job the way submit admits a
// queued one, but leaves it out of the queue, so a test can drive its
// transitions by hand.
func registeredJob(svc *Service, spec JobSpec) *Job {
	j := svc.newJob(spec, false)
	svc.mu.Lock()
	svc.register(j, admitQueued)
	svc.mu.Unlock()
	return j
}

// TestJobTransitions is the lifecycle as a table: every event applied to
// a job in every state, with the state it leaves and whether the caller
// won. Events that end the job run its settle, so a job that ends here
// must also settle.
func TestJobTransitions(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	res := &JobResult{Alpha: 2}

	// Each setup brings a freshly registered job to a state.
	setups := map[string]func(t *testing.T, j *Job){
		"queued": func(*testing.T, *Job) {},
		"running": func(t *testing.T, j *Job) {
			if !j.tryStart(time.Now()) {
				t.Fatal("setup: start refused")
			}
		},
		"claimed": func(t *testing.T, j *Job) {
			if !j.tryStart(time.Now()) || !j.claim() {
				t.Fatal("setup: start or claim refused")
			}
		},
		"terminal": func(t *testing.T, j *Job) {
			if !j.Cancel("setup") {
				t.Fatal("setup: cancel refused")
			}
		},
		// The context ends while the job waits in the queue; its hook
		// runs on its own goroutine.
		"expired": func(_ *testing.T, j *Job) { j.cancel() },
	}
	events := map[string]func(j *Job) bool{
		"start":    func(j *Job) bool { return j.tryStart(time.Now()) },
		"claim":    func(j *Job) bool { return j.claim() },
		"complete": func(j *Job) bool { return j.finish(time.Now(), JobDone, res, "", true) },
		"cancel":   func(j *Job) bool { return j.Cancel("canceled by test") },
		// The deadline fires: the context ends and the hook, if it is
		// still registered, runs. Stopping the hook first and running it
		// here makes the event synchronous.
		"deadline": func(j *Job) bool {
			j.mu.Lock()
			stop := j.stopExpiry
			j.mu.Unlock()
			registered := stop()
			j.cancel()
			if !registered {
				return false
			}
			before := j.State()
			j.expire()
			return !before.terminal() && j.State() == JobCanceled
		},
		"failure": func(j *Job) bool { return j.finish(time.Now(), JobFailed, nil, "boom", false) },
		"leader outcome": func(j *Job) bool {
			return j.followOutcome(time.Now(), JobSnapshot{ID: "j-0", State: JobDone, Result: res})
		},
	}
	for _, tc := range []struct {
		state   string
		anytime bool
		event   string
		want    JobState
		won     bool
	}{
		{"queued", false, "start", JobRunning, true},
		{"queued", false, "claim", JobQueued, false},
		{"queued", false, "complete", JobQueued, false}, // only a claimant completes
		{"queued", false, "cancel", JobCanceled, true},
		{"queued", false, "deadline", JobCanceled, true},
		{"queued", false, "failure", JobFailed, true},
		{"queued", false, "leader outcome", JobDone, true},

		{"running", false, "start", JobRunning, false},
		{"running", false, "claim", JobRunning, true}, // claimed still reads running
		{"running", false, "complete", JobRunning, false},
		{"running", false, "cancel", JobCanceled, true},
		{"running", false, "deadline", JobCanceled, true},
		{"running", false, "failure", JobFailed, true},
		{"running", false, "leader outcome", JobDone, true},

		{"claimed", false, "start", JobRunning, false},
		{"claimed", false, "claim", JobRunning, false},
		{"claimed", false, "complete", JobDone, true},
		{"claimed", false, "cancel", JobRunning, false},
		{"claimed", false, "deadline", JobRunning, false},
		{"claimed", false, "failure", JobRunning, false},
		{"claimed", false, "leader outcome", JobRunning, false},

		{"terminal", false, "start", JobCanceled, false},
		{"terminal", false, "claim", JobCanceled, false},
		{"terminal", false, "complete", JobCanceled, false},
		{"terminal", false, "cancel", JobCanceled, false},
		{"terminal", false, "deadline", JobCanceled, false},
		{"terminal", false, "failure", JobCanceled, false},
		{"terminal", false, "leader outcome", JobCanceled, false},

		// A queued anytime job's deadline cancels it like any other; once
		// it runs, its deadline is the worker's (the hook is gone).
		{"queued", true, "start", JobRunning, true},
		{"queued", true, "deadline", JobCanceled, true},
		{"running", true, "deadline", JobRunning, false},
		{"claimed", true, "deadline", JobRunning, false},
		// A job whose hook has fired never starts: the hook cancels it.
		{"expired", true, "start", JobCanceled, false},
		{"expired", false, "start", JobCanceled, false},
	} {
		name := fmt.Sprintf("%s/anytime=%v/%s", tc.state, tc.anytime, tc.event)
		t.Run(name, func(t *testing.T) {
			j := registeredJob(svc, JobSpec{GraphID: id, Algorithm: "decompose", Anytime: tc.anytime,
				Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}})
			setups[tc.state](t, j)
			if won := events[tc.event](j); won != tc.won {
				t.Errorf("won = %v, want %v", won, tc.won)
			}
			if tc.want.terminal() {
				select {
				case <-j.Done():
				case <-time.After(10 * time.Second):
					t.Fatal("job never settled")
				}
			} else if j.settled() {
				t.Error("a live job settled")
			}
			if got := j.State(); got != tc.want {
				t.Errorf("state = %s, want %s", got, tc.want)
			}
			// End whatever is left; a claimed job only its claimant can end.
			j.Cancel("cleanup")
			j.finish(time.Now(), JobDone, res, "", true)
		})
	}
}

// TestLifecycleStress submits identical and distinct specs from many
// goroutines, cancels at random and lets a test hook finish after short
// random delays, some jobs with deadlines that fire queued or running.
// Every job must settle exactly once (a second settle would close done
// twice and panic; the history counts one record per settle), and no
// follower slot, follower list or in-flight entry may outlive its job.
func TestLifecycleStress(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2, QueueDepth: 128})
	svc.execHook = func(ctx context.Context, g *graph.Graph, spec JobSpec) (*JobResult, error) {
		d := time.Duration(spec.Options.Seed%4) * 300 * time.Microsecond
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
			if spec.Options.Seed%7 == 0 {
				return nil, errors.New("deterministic failure")
			}
		case <-ctx.Done():
			if !spec.Anytime {
				return nil, ctx.Err()
			}
		}
		res := &JobResult{Alpha: int(spec.Options.Seed)}
		if spec.Anytime && ctx.Err() != nil {
			res.Anytime = &algo.AnytimeInfo{Partial: true, ColorsUsed: 1}
		}
		return res, nil
	}
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))

	const submitters, perSubmitter = 8, 60
	var (
		mu   sync.Mutex
		jobs []*Job
		wg   sync.WaitGroup
	)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 31))
			for i := 0; i < perSubmitter; i++ {
				spec := JobSpec{GraphID: id, Algorithm: "decompose", Anytime: r.IntN(4) == 0,
					Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: uint64(1 + r.IntN(40))}}
				if r.IntN(3) == 0 {
					spec.TimeoutMillis = int64(1 + r.IntN(3))
				}
				j, err := svc.Submit(spec)
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
				switch r.IntN(4) {
				case 0:
					j.Cancel("canceled by test")
				case 1:
					time.Sleep(time.Duration(r.IntN(500)) * time.Microsecond)
					j.Cancel("canceled by test")
				}
			}
		}(w)
	}
	wg.Wait()
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s never settled (state %s)", j.ID(), j.State())
		}
	}
	if added := svc.Stats().History.Added; added != int64(len(jobs)) {
		t.Errorf("history holds %d settles for %d jobs", added, len(jobs))
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if svc.followers != 0 || len(svc.inflight) != 0 {
		t.Errorf("after every job settled: followers = %d, in flight = %d, want 0 and 0", svc.followers, len(svc.inflight))
	}
	for _, j := range jobs {
		if len(j.followers) != 0 || j.leader != nil {
			t.Errorf("settled job %s still holds %d followers, leader %v", j.ID(), len(j.followers), j.leader != nil)
		}
	}
	t.Logf("%d jobs, %d dedups", len(jobs), svc.dedups)
}

// TestEndedJobPublishesNothing runs jobs that a client cancels, or whose
// deadline fires, while they run; their computations then return a
// result anyway (an anytime run its best checkpoint). None of it may
// reach the result cache, the WAL, the anytime partials count or the
// duration histogram: a result is published only by the transition
// that wins.
func TestEndedJobPublishesNothing(t *testing.T) {
	const sentinel = 99 // this seed fails at once
	for _, tc := range []struct {
		name    string
		anytime bool
		timeout int64
	}{
		{"anytime job canceled", true, 0},
		{"job canceled", false, 0},
		{"job past its deadline", false, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := newTestService(t, Config{Workers: 1, DataDir: t.TempDir()})
			svc.execHook = func(ctx context.Context, g *graph.Graph, spec JobSpec) (*JobResult, error) {
				if spec.Options.Seed == sentinel {
					return nil, errors.New("sentinel")
				}
				<-ctx.Done()
				res := &JobResult{Decomposition: &nwforest.Decomposition{Colors: make([]int32, g.M()), NumForests: 1}}
				if spec.Anytime {
					res.Anytime = &algo.AnytimeInfo{Partial: true, ColorsUsed: 1, Target: 3, Checkpoints: 1, Phase: "test"}
				}
				return res, nil
			}
			id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
			walBefore := svc.Stats().Persist.WALRecords
			spec := JobSpec{GraphID: id, Algorithm: "decompose", Anytime: tc.anytime, TimeoutMillis: tc.timeout,
				Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}}
			j, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitForState(t, svc, j.ID(), JobRunning)
			if tc.timeout == 0 && !j.Cancel(clientCancel) {
				t.Fatal("cancel of a running job refused")
			}
			if snap := waitDone(t, svc, j); snap.State != JobCanceled {
				t.Fatalf("job ended %s, want canceled", snap.State)
			}
			// The single worker takes the next job only once it is done
			// with this one's late result.
			spec.Options.Seed = sentinel
			next, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if snap := waitDone(t, svc, next); snap.State != JobFailed {
				t.Fatalf("sentinel job ended %s, want failed", snap.State)
			}
			st := svc.Stats()
			if st.Results.Size != 0 || st.Persist.WALRecords != walBefore || st.Anytime.Partials != 0 {
				t.Errorf("cache entries %d, WAL records %d (was %d), partials %d: want 0, %d, 0",
					st.Results.Size, st.Persist.WALRecords, walBefore, st.Anytime.Partials, walBefore)
			}
			var metrics bytes.Buffer
			if err := svc.metrics.WritePrometheus(&metrics); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(metrics.String(), "nwserve_job_duration_seconds_count") {
				t.Error("the duration histogram observed a job that ended without a result")
			}
		})
	}
}

// TestWorkersBoundComputations gives one worker jobs whose computation
// ignores its context until released. Each job's deadline ends it, and
// the next is submitted only then; the first computation still holds the
// worker, so the later jobs expire queued and no second computation
// ever starts beside it.
func TestWorkersBoundComputations(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	release := make(chan struct{})
	var running, peak atomic.Int32
	svc.execHook = func(context.Context, *graph.Graph, JobSpec) (*JobResult, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		<-release
		running.Add(-1)
		return &JobResult{}, nil
	}
	defer close(release)
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	for seed := uint64(1); seed <= 4; seed++ {
		j, err := svc.Submit(JobSpec{GraphID: id, Algorithm: "decompose", TimeoutMillis: 40,
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		if snap := waitDone(t, svc, j); snap.State != JobCanceled {
			t.Fatalf("job %d ended %s, want canceled by its deadline", seed, snap.State)
		}
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("%d computations ran at once on 1 worker", p)
	}
}

// TestAnytimeGraceCancelsJob runs an anytime job whose computation
// ignores its context until released. Once the deadline and the grace
// have passed, the job ends canceled while its worker is still busy; the
// result the computation returns after that, a checkpoint or a complete
// run, is neither cached, written to the WAL nor counted as a partial.
func TestAnytimeGraceCancelsJob(t *testing.T) {
	const sentinel = 99 // this seed fails at once
	for _, partial := range []bool{true, false} {
		t.Run(fmt.Sprintf("partial=%v", partial), func(t *testing.T) {
			svc := newTestService(t, Config{Workers: 1, AnytimeGrace: 50 * time.Millisecond, DataDir: t.TempDir()})
			release := make(chan struct{})
			var busy atomic.Bool
			svc.execHook = func(ctx context.Context, g *graph.Graph, spec JobSpec) (*JobResult, error) {
				if spec.Options.Seed == sentinel {
					return nil, errors.New("sentinel")
				}
				busy.Store(true)
				defer busy.Store(false)
				<-release
				res := &JobResult{Decomposition: &nwforest.Decomposition{Colors: make([]int32, g.M()), NumForests: 1}}
				if partial {
					res.Anytime = &algo.AnytimeInfo{Partial: true, ColorsUsed: 1, Target: 3, Checkpoints: 1, Phase: "test"}
				}
				return res, nil
			}
			id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
			walBefore := svc.Stats().Persist.WALRecords
			spec := JobSpec{GraphID: id, Algorithm: "decompose", Anytime: true, TimeoutMillis: 30,
				Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}}
			j, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			snap := waitDone(t, svc, j)
			if want := context.DeadlineExceeded.Error() + " (no anytime checkpoint within grace)"; snap.State != JobCanceled || snap.Error != want {
				t.Fatalf("job ended %s (%q), want canceled (%q)", snap.State, snap.Error, want)
			}
			if !busy.Load() {
				t.Fatal("the computation returned before the grace ended the job")
			}
			close(release)
			// The single worker takes the next job only once it is done
			// with this one's late result.
			spec.Options.Seed = sentinel
			next, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if snap := waitDone(t, svc, next); snap.State != JobFailed {
				t.Fatalf("sentinel job ended %s, want failed", snap.State)
			}
			st := svc.Stats()
			if st.Results.Size != 0 || st.Persist.WALRecords != walBefore || st.Anytime.Partials != 0 {
				t.Errorf("cache entries %d, WAL records %d (was %d), partials %d: want 0, %d, 0",
					st.Results.Size, st.Persist.WALRecords, walBefore, st.Anytime.Partials, walBefore)
			}
		})
	}
}

// TestPanickingAlgorithmFailsJob checks that a computation that panics
// on its worker fails its job and leaves the worker serving the next.
func TestPanickingAlgorithmFailsJob(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	svc.execHook = func(_ context.Context, _ *graph.Graph, spec JobSpec) (*JobResult, error) {
		if spec.Options.Seed == 1 {
			panic("boom")
		}
		return &JobResult{Alpha: 2}, nil
	}
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	for _, tc := range []struct {
		seed  uint64
		state JobState
		err   string
	}{
		{1, JobFailed, "service: algorithm panicked: boom"},
		{2, JobDone, ""},
	} {
		j, err := svc.Submit(JobSpec{GraphID: id, Algorithm: "decompose",
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: tc.seed}})
		if err != nil {
			t.Fatal(err)
		}
		if snap := waitDone(t, svc, j); snap.State != tc.state || snap.Error != tc.err {
			t.Fatalf("job %d ended %s (%q), want %s (%q)", tc.seed, snap.State, snap.Error, tc.state, tc.err)
		}
	}
}

// TestResultDurableBeforeDone checks that a computed result is in the
// WAL by the time its job reads done: a client that sees done and then
// loses the server still finds the result after a restart.
func TestResultDurableBeforeDone(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2, DataDir: t.TempDir()})
	svc.execHook = func(_ context.Context, _ *graph.Graph, spec JobSpec) (*JobResult, error) {
		return &JobResult{Alpha: int(spec.Options.Seed)}, nil
	}
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	for seed := uint64(1); seed <= 30; seed++ {
		before := svc.Stats().Persist.WALRecords
		j, err := svc.Submit(JobSpec{GraphID: id, Algorithm: "decompose",
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		if snap := waitDone(t, svc, j); snap.State != JobDone {
			t.Fatalf("job %d ended %s (%s)", seed, snap.State, snap.Error)
		}
		if got := svc.Stats().Persist.WALRecords; got != before+1 {
			t.Fatalf("job %d done with %d WAL records appended since its submit, want 1", seed, got-before)
		}
	}
}

// TestWaitingJobsStartNoGoroutines pins the cost of waiting: a follower
// and a queued job are a Job each, with no goroutine of their own.
func TestWaitingJobsStartNoGoroutines(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, QueueDepth: 100})
	svc.execHook = blockUntilCanceled
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	spec := func(seed uint64) JobSpec {
		return JobSpec{GraphID: id, Algorithm: "decompose",
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: seed}}
	}
	leader, err := svc.Submit(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, svc, leader.ID(), JobRunning)
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		if _, err := svc.Submit(spec(1)); err != nil {
			t.Fatal(err)
		}
	}
	followers := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		if _, err := svc.Submit(spec(uint64(2 + i))); err != nil {
			t.Fatal(err)
		}
	}
	queued := runtime.NumGoroutine()
	if svc.Stats().Dedups != 100 {
		t.Fatalf("dedups = %d, want 100", svc.Stats().Dedups)
	}
	// A little slack for goroutines the runtime or the test framework
	// start on their own; one per job would be 100.
	if followers-before > 2 || queued-followers > 2 {
		t.Errorf("goroutines: %d with the leader running, %d after 100 followers, %d after 100 queued jobs",
			before, followers, queued)
	}
}

// TestExpiredFollowersLeaveLeader attaches followers with a 1 ms deadline
// to one long-running leader at a follower cap of 2. Each ends first and
// frees its slot, so all are admitted, and each detaches itself from the
// leader, so the leader holds none of them.
func TestExpiredFollowersLeaveLeader(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, QueueDepth: 2})
	svc.execHook = blockUntilCanceled
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	spec := JobSpec{GraphID: id, Algorithm: "estimate-alpha"}
	leader, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, svc, leader.ID(), JobRunning)
	spec.TimeoutMillis = 1
	for i := 0; i < 20; i++ {
		f, err := svc.Submit(spec)
		if err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
		if f.admitted != admitFollower {
			t.Fatalf("follower %d admitted as %d", i, f.admitted)
		}
		if snap := waitDone(t, svc, f); snap.State != JobCanceled {
			t.Fatalf("follower %d ended %s, want canceled by its deadline", i, snap.State)
		}
	}
	svc.mu.Lock()
	held, slots := len(leader.followers), svc.followers
	svc.mu.Unlock()
	if held != 0 || slots != 0 {
		t.Fatalf("leader holds %d followers and %d follower slots are taken, want 0 and 0", held, slots)
	}
	if leader.State() != JobRunning {
		t.Fatalf("leader %s, want still running", leader.State())
	}
}

// TestSubmitStatusFromAdmission checks that POST /jobs answers 200 only
// for a submit-time cache hit: a fresh job gets 202 even when it is done
// before the handler answers, and so does a follower.
func TestSubmitStatusFromAdmission(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 2})
	release := make(chan struct{})
	svc.execHook = func(ctx context.Context, _ *graph.Graph, spec JobSpec) (*JobResult, error) {
		if spec.Options.Seed == 1 {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &JobResult{Alpha: int(spec.Options.Seed)}, nil
	}
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	post := func(seed uint64) (int, JobSnapshot) {
		t.Helper()
		body, _ := json.Marshal(JobSpec{GraphID: id, Algorithm: "decompose",
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: seed}})
		var snap JobSnapshot
		code := doJSON(t, "POST", ts.URL+"/jobs", body, "application/json", &snap)
		return code, snap
	}
	// Fresh jobs whose computation returns at once.
	for seed := uint64(2); seed < 22; seed++ {
		if code, snap := post(seed); code != http.StatusAccepted || snap.Cached {
			t.Fatalf("fresh job %d: %d cached=%v, want 202 uncached", seed, code, snap.Cached)
		}
	}
	code, leader := post(1)
	if code != http.StatusAccepted {
		t.Fatalf("blocked leader: %d, want 202", code)
	}
	if code, f := post(1); code != http.StatusAccepted || f.Cached || f.State.terminal() {
		t.Fatalf("follower: %d %+v, want 202 and live", code, f)
	}
	close(release)
	j, _ := svc.Get(leader.ID)
	waitDone(t, svc, j)
	if code, hit := post(1); code != http.StatusOK || !hit.Cached || hit.State != JobDone {
		t.Fatalf("repeat after completion: %d cached=%v state=%s, want 200 cached done", code, hit.Cached, hit.State)
	}
}
