package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nwforest"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// TestAnytimeCacheKeyContract extends the golden-key guarantee to the
// anytime keys: the plain key rendering is byte-identical to what
// earlier releases produced (anytime must not invalidate warm caches),
// the anytime flag itself never changes the complete key, and the
// partial/in-flight qualifiers can never collide with it.
func TestAnytimeCacheKeyContract(t *testing.T) {
	spec := JobSpec{GraphID: "sha256:aa", Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 1}}
	const golden = "sha256:aa|decompose|alpha=3,eps=0.5,seed=1,diam=false,sampled=false,alphaStar=0,palette=0,mode="
	if got := spec.CacheKey(); got != golden {
		t.Fatalf("plain cache key changed:\n got  %q\n want %q", got, golden)
	}

	anytime := spec
	anytime.Anytime = true
	anytime.TimeoutMillis = 50
	if got := anytime.CacheKey(); got != golden {
		t.Errorf("anytime flag leaked into the complete key:\n got  %q\n want %q", got, golden)
	}

	if got, want := spec.partialCacheKey(7), golden+",anytime-partial=7"; got != want {
		t.Errorf("partial key:\n got  %q\n want %q", got, want)
	}
	if spec.partialCacheKey(7) == spec.partialCacheKey(8) {
		t.Error("partials of different quality share a key")
	}
	if spec.partialCacheKey(7) == spec.CacheKey() {
		t.Error("partial key collides with the complete key")
	}

	if got := spec.inflightKey(); got != golden {
		t.Errorf("non-anytime inflight key %q differs from the cache key", got)
	}
	if got, want := anytime.inflightKey(), golden+",anytime"; got != want {
		t.Errorf("anytime inflight key:\n got  %q\n want %q", got, want)
	}
}

// TestAnytimeHTTPEndToEnd is the full anytime client story over HTTP:
// a deadline that fires mid-run yields a 200 with a verify-clean
// partial decomposition and its quality bound; the identical spec
// without the deadline computes the complete result from scratch (the
// partial never masks it); and once the complete result is cached, an
// anytime request is served straight from the cache.
func TestAnytimeHTTPEndToEnd(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 2})
	// Large enough that a cold run takes well over four times the
	// deadline's 10 ms floor (about 140 ms on a 2-vCPU Xeon), so the
	// calibrated deadline lands mid-run.
	g := gen.ForestUnion(8000, 3, 42)

	var upload bytes.Buffer
	if err := graph.Encode(&upload, g); err != nil {
		t.Fatal(err)
	}
	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs", upload.Bytes(), "", &info); code != http.StatusCreated {
		t.Fatalf("POST /graphs -> %d, want 201", code)
	}

	// Calibrate: time a cold complete run so the anytime deadline lands
	// mid-run on this machine, fast or slow.
	coldSpec := JobSpec{GraphID: info.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 4, Eps: 0.5, Seed: 1}}
	started := time.Now()
	snap := submitAndWait(t, ts, coldSpec, 120*time.Second)
	coldRun := time.Since(started)
	if snap.State != JobDone || snap.Result.Anytime != nil {
		t.Fatalf("calibration run: state %s anytime %+v", snap.State, snap.Result.Anytime)
	}
	deadline := coldRun / 4
	if deadline < 10*time.Millisecond {
		deadline = 10 * time.Millisecond
	}
	if deadline > 2*time.Second {
		deadline = 2 * time.Second
	}

	// The timed run uses a different seed so the calibration run's
	// cached result cannot satisfy it.
	timedSpec := JobSpec{GraphID: info.ID, Algorithm: "decompose", Anytime: true,
		TimeoutMillis: deadline.Milliseconds(),
		Options:       nwforest.Options{Alpha: 4, Eps: 0.5, Seed: 2}}
	snap = submitAndWait(t, ts, timedSpec, 120*time.Second)
	if snap.State != JobDone {
		t.Fatalf("anytime job with %v deadline: state %s (%s), want done", deadline, snap.State, snap.Error)
	}
	if snap.Result == nil || snap.Result.Anytime == nil || !snap.Result.Anytime.Partial {
		t.Fatalf("anytime job with %v deadline (cold run %v) returned no partial: %+v",
			deadline, coldRun, snap.Result)
	}
	ai := snap.Result.Anytime
	colors := snap.Result.Decomposition.Colors
	k := int(verify.MaxColor(colors)) + 1
	if err := verify.ForestDecomposition(g, colors, k); err != nil {
		t.Fatalf("partial result fails verification: %v", err)
	}
	if used := verify.ColorsUsed(colors); used != ai.ColorsUsed {
		t.Errorf("stated quality bound %d, served coloring uses %d colors", ai.ColorsUsed, used)
	}
	if ai.Target < 1 || ai.Checkpoints < 1 || ai.Phase == "" {
		t.Errorf("implausible partial metadata %+v", ai)
	}

	// Same spec, no deadline: the cached partial must not be served in
	// place of a fresh complete run.
	fullSpec := timedSpec
	fullSpec.TimeoutMillis = 0
	snap = submitAndWait(t, ts, fullSpec, 120*time.Second)
	if snap.State != JobDone || snap.Result.Anytime != nil {
		t.Fatalf("undeadlined rerun: state %s anytime %+v, want a complete result", snap.State, snap.Result.Anytime)
	}
	if snap.Cached {
		t.Fatal("undeadlined rerun was served from cache: a partial masked the complete computation")
	}
	completeForests := snap.Result.Decomposition.NumForests

	// Now the complete result is cached; an anytime request is satisfied
	// by it directly (complete results are interchangeable, which is why
	// Anytime stays out of the cache key).
	again := timedSpec
	again.TimeoutMillis = 60_000
	snap = submitAndWait(t, ts, again, 120*time.Second)
	if !snap.Cached || snap.Result.Anytime != nil {
		t.Fatalf("anytime request after complete run: cached=%v anytime=%+v, want a cache hit", snap.Cached, snap.Result.Anytime)
	}
	if snap.Result.Decomposition.NumForests != completeForests {
		t.Fatalf("cache served %d forests, complete run had %d", snap.Result.Decomposition.NumForests, completeForests)
	}

	// Observability: both counters moved, and /metrics exposes them.
	st := svc.Stats()
	if st.Anytime.Jobs < 2 || st.Anytime.Partials < 1 {
		t.Errorf("stats: anytime jobs %d partials %d, want >=2 and >=1", st.Anytime.Jobs, st.Anytime.Partials)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, metric := range []string{"nwserve_anytime_jobs_total", "nwserve_anytime_partials_total"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}

// TestAnytimeRejectsIncremental: the two modes answer "what happens at
// the deadline" incompatibly, so combining them is a client error.
func TestAnytimeRejectsIncremental(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	g := gen.ForestUnion(50, 2, 1)
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	info, err := svc.Store().AddBytes(buf.Bytes(), graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.Submit(JobSpec{GraphID: info.ID, Algorithm: "decompose", Mode: ModeIncremental, Anytime: true,
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 1}})
	if err == nil || !strings.Contains(err.Error(), "anytime") {
		t.Fatalf("anytime+incremental accepted (err=%v)", err)
	}
	// Anytime on an algorithm without the capability is rejected too.
	_, err = svc.Submit(JobSpec{GraphID: info.ID, Algorithm: "arboricity", Anytime: true})
	if err == nil {
		t.Fatal("anytime accepted for an algorithm without the capability")
	}
}

// submitAndWait posts a job and follows it to a terminal state.
func submitAndWait(t *testing.T, ts *httptest.Server, spec JobSpec, patience time.Duration) JobSnapshot {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var snap JobSnapshot
	code := doJSON(t, "POST", ts.URL+"/jobs", body, "application/json", &snap)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("POST /jobs -> %d", code)
	}
	deadline := time.Now().Add(patience)
	for !snap.State.terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", snap.ID, snap.State, patience)
		}
		url := fmt.Sprintf("%s/jobs/%s?wait=2s", ts.URL, snap.ID)
		if code := doJSON(t, "GET", url, nil, "", &snap); code != http.StatusOK {
			t.Fatalf("GET %s -> %d", url, code)
		}
	}
	return snap
}
