package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nwforest"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
)

// testServer stands up the full HTTP surface over a real Service.
func testServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := newTestService(t, cfg)
	ts := httptest.NewServer(NewHTTPHandler(svc))
	t.Cleanup(ts.Close)
	return svc, ts
}

func doJSON(t *testing.T, method, url string, body []byte, contentType string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// TestServeEndToEnd is the full client story: upload a graph, submit a
// job, wait for it, verify the decomposition, then watch the identical
// request come back from the result cache with identical colors.
func TestServeEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	g := gen.ForestUnion(200, 3, 42)

	var upload bytes.Buffer
	if err := graph.Encode(&upload, g); err != nil {
		t.Fatal(err)
	}
	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs", upload.Bytes(), "", &info); code != http.StatusCreated {
		t.Fatalf("POST /graphs -> %d, want 201", code)
	}
	if !strings.HasPrefix(info.ID, "sha256:") || info.N != 200 || info.Format != "plain" {
		t.Fatalf("bad graph info %+v", info)
	}

	spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 7}})
	var snap JobSnapshot
	if code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &snap); code != http.StatusAccepted {
		t.Fatalf("POST /jobs -> %d, want 202", code)
	}
	if snap.ID == "" || snap.Cached {
		t.Fatalf("fresh job snapshot %+v", snap)
	}

	var done JobSnapshot
	if code := doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"?wait=30s", nil, "", &done); code != http.StatusOK {
		t.Fatalf("GET /jobs/{id}?wait -> %d, want 200", code)
	}
	if done.State != JobDone {
		t.Fatalf("job finished as %s (%s), want done", done.State, done.Error)
	}
	d := done.Result.Decomposition
	if err := nwforest.Verify(g, d.Colors, d.NumForests); err != nil {
		t.Fatalf("served decomposition invalid: %v", err)
	}
	if len(d.Phases) == 0 {
		t.Fatal("served decomposition has no phase breakdown")
	}

	// The identical request is a cache hit: 200 (not 202), already done,
	// flagged cached, bit-identical colors.
	var cached JobSnapshot
	if code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &cached); code != http.StatusOK {
		t.Fatalf("repeat POST /jobs -> %d, want 200 (cache hit)", code)
	}
	if cached.State != JobDone || !cached.Cached {
		t.Fatalf("repeat job: state=%s cached=%v", cached.State, cached.Cached)
	}
	for i, c := range d.Colors {
		if cached.Result.Decomposition.Colors[i] != c {
			t.Fatalf("cached colors diverge from cold run at edge %d", i)
		}
	}

	var stats Stats
	if code := doJSON(t, "GET", ts.URL+"/stats", nil, "", &stats); code != http.StatusOK {
		t.Fatalf("GET /stats -> %d", code)
	}
	if stats.Results.Hits < 1 {
		t.Fatalf("stats report %d cache hits, want >= 1", stats.Results.Hits)
	}
	if stats.Store.Graphs != 1 {
		t.Fatalf("stats report %d graphs, want 1", stats.Store.Graphs)
	}
}

// TestServeHitIsCompactJSON pins the response encoding: a cache hit's
// body is one line, the compact encoding of the job's snapshot, and it
// decodes to the cold run's colors.
func TestServeHitIsCompactJSON(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 1})
	g := gen.ForestUnion(300, 3, 5)
	var upload bytes.Buffer
	if err := graph.Encode(&upload, g); err != nil {
		t.Fatal(err)
	}
	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs", upload.Bytes(), "", &info); code != http.StatusCreated {
		t.Fatalf("POST /graphs -> %d, want 201", code)
	}
	spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 1}})
	var snap, cold JobSnapshot
	doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &snap)
	if code := doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"?wait=30s", nil, "", &cold); code != http.StatusOK || cold.State != JobDone {
		t.Fatalf("cold job -> %d, state %s (%s)", code, cold.State, cold.Error)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat POST /jobs -> %d, %v, want a 200 hit", resp.StatusCode, err)
	}
	if i := bytes.IndexByte(body, '\n'); i != len(body)-1 {
		t.Fatalf("hit body has a newline at byte %d of %d, want one line", i, len(body))
	}
	var hit JobSnapshot
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	j, ok := svc.Get(hit.ID)
	if !ok || !hit.Cached {
		t.Fatalf("hit %s: known %v, cached %v", hit.ID, ok, hit.Cached)
	}
	want, err := json.Marshal(j.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(want, '\n')) {
		t.Fatalf("hit body is not the compact encoding of its snapshot:\n%.200s\n%.200s", body, want)
	}
	got, coldColors := hit.Result.Decomposition.Colors, cold.Result.Decomposition.Colors
	if len(got) != g.M() || len(got) != len(coldColors) {
		t.Fatalf("hit has %d colors, cold run %d, graph %d edges", len(got), len(coldColors), g.M())
	}
	for i := range got {
		if got[i] != coldColors[i] {
			t.Fatalf("hit colors diverge from the cold run at edge %d", i)
		}
	}
}

func TestServeDIMACSUpload(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	// K4 in DIMACS form; arboricity 2.
	dimacs := "c k4\np edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs", []byte(dimacs), "", &info); code != http.StatusCreated {
		t.Fatalf("POST /graphs (dimacs) -> %d, want 201", code)
	}
	if info.Format != "dimacs" || info.N != 4 || info.M != 6 {
		t.Fatalf("bad info %+v", info)
	}
	spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "arboricity"})
	var snap JobSnapshot
	doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &snap)
	var done JobSnapshot
	doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"?wait=30s", nil, "", &done)
	if done.State != JobDone || done.Result.Alpha != 2 {
		t.Fatalf("arboricity job: state=%s alpha=%d (%s), want done/2", done.State, done.Result.Alpha, done.Error)
	}
}

func TestServeErrors(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})

	if code := doJSON(t, "POST", ts.URL+"/graphs", []byte("not a graph"), "", nil); code != http.StatusBadRequest {
		t.Fatalf("garbage upload -> %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/graphs", nil, "", nil); code != http.StatusBadRequest {
		t.Fatalf("empty upload -> %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/graphs", []byte(`{"path":""}`), "application/json", nil); code != http.StatusBadRequest {
		t.Fatalf("pathless JSON ingest -> %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/graphs", []byte("200000000000 0\n"), "", nil); code != http.StatusBadRequest {
		t.Fatalf("hostile plain header -> %d, want 400", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/jobs/j-999", nil, "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job -> %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/graphs/sha256:nope", nil, "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph -> %d, want 404", code)
	}
	spec, _ := json.Marshal(JobSpec{GraphID: "sha256:nope", Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}})
	if code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", nil); code != http.StatusNotFound {
		t.Fatalf("job on unknown graph -> %d, want 404", code)
	}
	spec, _ = json.Marshal(JobSpec{GraphID: "sha256:nope", Algorithm: "decompose"})
	if code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", nil); code != http.StatusBadRequest {
		t.Fatalf("job without alpha/eps -> %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/jobs", []byte(`{"algorithm":`), "application/json", nil); code != http.StatusBadRequest {
		t.Fatalf("truncated spec -> %d, want 400", code)
	}
}

func TestServeCancelAndBackpressure(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	svc.execHook = blockUntilCanceled

	var info GraphInfo
	data := encode(t, gen.ForestUnion(20, 2, 1))
	doJSON(t, "POST", ts.URL+"/graphs", data, "", &info)
	submit := func(seed uint64) (JobSnapshot, int) {
		spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose",
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: seed}})
		var snap JobSnapshot
		code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &snap)
		return snap, code
	}

	running, code := submit(1)
	if code != http.StatusAccepted {
		t.Fatalf("first submit -> %d", code)
	}
	j, _ := svc.Get(running.ID)
	deadline := time.Now().Add(5 * time.Second)
	for j.State() == JobQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, code = submit(2); code != http.StatusAccepted {
		t.Fatalf("second submit -> %d", code)
	}
	if _, code = submit(3); code != http.StatusServiceUnavailable {
		t.Fatalf("third submit -> %d, want 503 (queue full)", code)
	}

	// wait=0s is non-blocking: an immediate snapshot of the still-running
	// job, not a hang until it terminates.
	var now JobSnapshot
	if code := doJSON(t, "GET", ts.URL+"/jobs/"+running.ID+"?wait=0s", nil, "", &now); code != http.StatusOK {
		t.Fatalf("GET ?wait=0s -> %d", code)
	}
	if now.State.terminal() {
		t.Fatalf("wait=0s state = %s, want a live state", now.State)
	}

	// Cancel the running job over HTTP and observe the canceled state.
	var canceled JobSnapshot
	if code := doJSON(t, "DELETE", ts.URL+"/jobs/"+running.ID, nil, "", &canceled); code != http.StatusOK {
		t.Fatalf("DELETE /jobs/{id} -> %d", code)
	}
	var after JobSnapshot
	doJSON(t, "GET", ts.URL+"/jobs/"+running.ID+"?wait=5s", nil, "", &after)
	if after.State != JobCanceled {
		t.Fatalf("canceled job state = %s, want canceled", after.State)
	}
}

// TestServeAlgorithmDiscovery checks GET /algorithms: every registered
// algorithm is listed with its metadata, so clients can discover the job
// surface (names, required params, capabilities) instead of guessing.
func TestServeAlgorithmDiscovery(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	var listing struct {
		Algorithms []AlgorithmInfo `json:"algorithms"`
	}
	if code := doJSON(t, "GET", ts.URL+"/algorithms", nil, "", &listing); code != http.StatusOK {
		t.Fatalf("GET /algorithms -> %d", code)
	}
	if len(listing.Algorithms) != len(Algorithms) {
		t.Fatalf("listed %d algorithms, registry has %d", len(listing.Algorithms), len(Algorithms))
	}
	byName := map[string]AlgorithmInfo{}
	for _, a := range listing.Algorithms {
		if a.Summary == "" {
			t.Errorf("%s: empty summary", a.Name)
		}
		byName[a.Name] = a
	}
	dec, ok := byName["decompose"]
	if !ok {
		t.Fatal("decompose missing from /algorithms")
	}
	if !dec.Capabilities.Incremental || !dec.Capabilities.NeedsAlpha || dec.Capabilities.Output != "decomposition" {
		t.Fatalf("decompose capabilities %+v", dec.Capabilities)
	}
	if len(dec.Required) == 0 {
		t.Fatal("decompose advertises no required params")
	}
	if est := byName["estimate-alpha"]; est.Capabilities.NeedsAlpha || est.Capabilities.Output != "scalar" {
		t.Fatalf("estimate-alpha capabilities %+v", est.Capabilities)
	}
}

// TestServeCancelInterruptsRealDecomposition runs a genuinely long
// decomposition — no execHook stand-in — and cancels it over HTTP while
// it is running. The job context is threaded down into the simulated
// round loops, so the DELETE must surface JobCanceled promptly, orders of
// magnitude before the decomposition's natural completion (tens of
// seconds at this problem size).
func TestServeCancelInterruptsRealDecomposition(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 1})
	data := encode(t, gen.ForestUnion(5000, 4, 7))
	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs", data, "", &info); code != http.StatusCreated {
		t.Fatalf("POST /graphs -> %d", code)
	}
	spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 4, Eps: 0.5, Seed: 1}})
	var snap JobSnapshot
	if code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &snap); code != http.StatusAccepted {
		t.Fatalf("POST /jobs -> %d", code)
	}
	j, ok := svc.Get(snap.ID)
	if !ok {
		t.Fatal("submitted job not retained")
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.State() == JobQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if j.State() != JobRunning {
		t.Fatalf("job state = %s, want running", j.State())
	}

	canceledAt := time.Now()
	var del JobSnapshot
	if code := doJSON(t, "DELETE", ts.URL+"/jobs/"+snap.ID, nil, "", &del); code != http.StatusOK {
		t.Fatalf("DELETE /jobs/{id} -> %d", code)
	}
	var after JobSnapshot
	doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"?wait=30s", nil, "", &after)
	if after.State == JobDone {
		// Only possible if the whole decomposition finished inside the
		// instant between the running-state check and the DELETE — a
		// machine fast beyond this workload's sizing, not a cancellation
		// bug. Don't mis-report it as one.
		t.Skipf("decomposition finished in the cancel window; resize the workload for this hardware")
	}
	if after.State != JobCanceled {
		t.Fatalf("state = %s (%s), want canceled", after.State, after.Error)
	}
	if after.Result != nil {
		t.Fatal("canceled job carries a result")
	}
	// Cancellation latency is bounded by one simulated round / one
	// Algorithm 2 cluster, not by the decomposition: even
	// race-instrumented and on a loaded runner it lands well inside this
	// backstop, while natural completion at n=5000 on one worker is
	// minutes there.
	if lat := time.Since(canceledAt); lat > 30*time.Second {
		t.Fatalf("cancellation took %v, want well under natural completion", lat)
	}
	// The interrupted algorithm observed its context: the worker is free
	// again, so a follow-up job on the same single-worker service
	// completes promptly.
	tiny := encode(t, gen.ForestUnion(50, 2, 3))
	var tinyInfo GraphInfo
	doJSON(t, "POST", ts.URL+"/graphs", tiny, "", &tinyInfo)
	tinySpec, _ := json.Marshal(JobSpec{GraphID: tinyInfo.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}})
	var tinySnap JobSnapshot
	doJSON(t, "POST", ts.URL+"/jobs", tinySpec, "application/json", &tinySnap)
	var tinyDone JobSnapshot
	if code := doJSON(t, "GET", ts.URL+"/jobs/"+tinySnap.ID+"?wait=30s", nil, "", &tinyDone); code != http.StatusOK {
		t.Fatalf("tiny job poll -> %d", code)
	}
	if tinyDone.State != JobDone {
		t.Fatalf("follow-up job state = %s (%s), want done", tinyDone.State, tinyDone.Error)
	}
}

func TestServeFileIngestGate(t *testing.T) {
	// Disabled by default: the endpoint must not let clients read the
	// server's filesystem.
	_, ts := testServer(t, Config{Workers: 1})
	if code := doJSON(t, "POST", ts.URL+"/graphs", []byte(`{"path":"/etc/passwd"}`), "application/json", nil); code != http.StatusForbidden {
		t.Fatalf("path ingest with no ingest dir -> %d, want 403", code)
	}

	// Enabled: paths resolve relative to the ingest dir; escapes are 403.
	dir := t.TempDir()
	data := encode(t, gen.ForestUnion(30, 2, 1))
	if err := os.WriteFile(filepath.Join(dir, "g.txt"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(filepath.Dir(dir), "outside.txt"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts2 := testServer(t, Config{Workers: 1, IngestDir: dir})
	var info GraphInfo
	if code := doJSON(t, "POST", ts2.URL+"/graphs", []byte(`{"path":"g.txt"}`), "application/json", &info); code != http.StatusCreated {
		t.Fatalf("in-dir ingest -> %d, want 201", code)
	}
	if info.N != 30 {
		t.Fatalf("ingested graph has n=%d, want 30", info.N)
	}
	if code := doJSON(t, "POST", ts2.URL+"/graphs", []byte(`{"path":"../outside.txt"}`), "application/json", nil); code != http.StatusForbidden {
		t.Fatalf("escaping ingest -> %d, want 403", code)
	}
}

func TestServeHealthAndLists(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	var health map[string]string
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, "", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz -> %d %v", code, health)
	}
	var graphs struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/graphs", nil, "", &graphs); code != http.StatusOK {
		t.Fatalf("GET /graphs -> %d", code)
	}
	var jobs struct {
		Jobs []JobSnapshot `json:"jobs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/jobs", nil, "", &jobs); code != http.StatusOK {
		t.Fatalf("GET /jobs -> %d", code)
	}
}

// TestServeVersioningAndIncremental is the dynamic-graph client story:
// upload a graph, decompose it, derive a child version with a batch of
// edge updates, and have the child decomposed incrementally from the
// parent's cached result — repaired, not recomputed.
func TestServeVersioningAndIncremental(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 2})
	g := gen.ForestUnion(200, 3, 42)

	var parent GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs", encode(t, g), "", &parent); code != http.StatusCreated {
		t.Fatalf("POST /graphs -> %d", code)
	}
	if parent.Parent != "" {
		t.Fatalf("uploaded graph claims parent %q", parent.Parent)
	}

	// Decompose the parent (the future warm start).
	spec, _ := json.Marshal(JobSpec{GraphID: parent.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 7}})
	var snap, done JobSnapshot
	doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &snap)
	doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"?wait=30s", nil, "", &done)
	if done.State != JobDone {
		t.Fatalf("parent decompose: %s (%s)", done.State, done.Error)
	}

	// Derive a child version: drop two edges, add four.
	mut := []byte(`{"insert": [[0,5],[5,9],[9,13],[2,100]], "delete": [0,1]}`)
	var child GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs/"+parent.ID+"/edges", mut, "application/json", &child); code != http.StatusCreated {
		t.Fatalf("POST /graphs/{id}/edges -> %d", code)
	}
	if child.Parent != parent.ID {
		t.Fatalf("child parent = %q, want %q", child.Parent, parent.ID)
	}
	if child.M != parent.M+4-2 {
		t.Fatalf("child has m=%d, want %d", child.M, parent.M+2)
	}
	var gotten GraphInfo
	if code := doJSON(t, "GET", ts.URL+"/graphs/"+child.ID, nil, "", &gotten); code != http.StatusOK || gotten.Parent != parent.ID {
		t.Fatalf("GET child -> %d, parent %q", code, gotten.Parent)
	}

	// Incremental decompose of the child: warm-started from the parent's
	// cached result, repaired by the dynamic maintainer.
	incSpec, _ := json.Marshal(JobSpec{GraphID: child.ID, Algorithm: "decompose", Mode: ModeIncremental,
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 7}})
	var incSnap, incDone JobSnapshot
	doJSON(t, "POST", ts.URL+"/jobs", incSpec, "application/json", &incSnap)
	doJSON(t, "GET", ts.URL+"/jobs/"+incSnap.ID+"?wait=30s", nil, "", &incDone)
	if incDone.State != JobDone {
		t.Fatalf("incremental decompose: %s (%s)", incDone.State, incDone.Error)
	}
	d := incDone.Result.Decomposition
	childGraph, err := svc.Store().Get(child.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := nwforest.Verify(childGraph, d.Colors, d.NumForests); err != nil {
		t.Fatalf("incremental result invalid: %v", err)
	}
	if want := nwforest.Diameter(childGraph, d.Colors); d.Diameter != want || want == 0 {
		t.Fatalf("incremental result reports diameter %d, its colors have %d", d.Diameter, want)
	}
	// The phase breakdown proves the repair path ran (a full-run fallback
	// would report the standard pipeline phases instead).
	repaired := false
	for _, p := range d.Phases {
		if strings.HasPrefix(p.Name, "dynamic/") {
			repaired = true
		}
	}
	if !repaired {
		t.Fatalf("incremental job did not use the repair path; phases %v", d.Phases)
	}

	// The identical incremental request is a cache hit under its own key.
	var cached JobSnapshot
	if code := doJSON(t, "POST", ts.URL+"/jobs", incSpec, "application/json", &cached); code != http.StatusOK || !cached.Cached {
		t.Fatalf("repeat incremental -> %d cached=%v, want 200/true", code, cached.Cached)
	}

	// A full-mode decompose of the same child is a distinct computation —
	// fresh job, not the incremental cache entry.
	fullSpec, _ := json.Marshal(JobSpec{GraphID: child.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 7}})
	var fullSnap JobSnapshot
	if code := doJSON(t, "POST", ts.URL+"/jobs", fullSpec, "application/json", &fullSnap); code != http.StatusAccepted {
		t.Fatalf("full-mode decompose of child -> %d, want 202 (separate cache identity)", code)
	}

	var stats Stats
	doJSON(t, "GET", ts.URL+"/stats", nil, "", &stats)
	if stats.Store.Mutations != 1 {
		t.Fatalf("stats report %d mutations, want 1", stats.Store.Mutations)
	}
}

// TestServeIncrementalFallsBackCold: incremental mode on a graph with no
// cached parent result (or no lineage at all) degrades to a full run.
func TestServeIncrementalFallsBackCold(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	var parent GraphInfo
	doJSON(t, "POST", ts.URL+"/graphs", encode(t, gen.ForestUnion(100, 2, 9)), "", &parent)

	// No lineage: incremental on a root graph.
	rootSpec, _ := json.Marshal(JobSpec{GraphID: parent.ID, Algorithm: "decompose", Mode: ModeIncremental,
		Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 3}})
	var snap, done JobSnapshot
	doJSON(t, "POST", ts.URL+"/jobs", rootSpec, "application/json", &snap)
	doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"?wait=30s", nil, "", &done)
	if done.State != JobDone {
		t.Fatalf("rootless incremental: %s (%s)", done.State, done.Error)
	}

	// Lineage but no warm start: the parent was never decomposed.
	var child GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs/"+parent.ID+"/edges", []byte(`{"insert":[[0,50]]}`), "application/json", &child); code != http.StatusCreated {
		t.Fatalf("mutate -> %d", code)
	}
	childSpec, _ := json.Marshal(JobSpec{GraphID: child.ID, Algorithm: "decompose", Mode: ModeIncremental,
		Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 99}})
	doJSON(t, "POST", ts.URL+"/jobs", childSpec, "application/json", &snap)
	doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"?wait=30s", nil, "", &done)
	if done.State != JobDone {
		t.Fatalf("cold incremental: %s (%s)", done.State, done.Error)
	}
	for _, p := range done.Result.Decomposition.Phases {
		if strings.HasPrefix(p.Name, "dynamic/") {
			t.Fatalf("cold incremental claims repair phases %v", done.Result.Decomposition.Phases)
		}
	}
}

func TestServeMutationErrors(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	var info GraphInfo
	doJSON(t, "POST", ts.URL+"/graphs", encode(t, gen.Grid(3, 3)), "", &info)

	if code := doJSON(t, "POST", ts.URL+"/graphs/sha256:nope/edges", []byte(`{"insert":[[0,1]]}`), "application/json", nil); code != http.StatusNotFound {
		t.Fatalf("mutate unknown graph -> %d, want 404", code)
	}
	cases := []string{
		`{}`,                  // empty batch
		`{"insert":[[4,4]]}`,  // self-loop
		`{"insert":[[0,99]]}`, // endpoint out of range
		`{"delete":[99]}`,     // edge ID out of range
		`{"delete":[0,0]}`,    // double delete
		`{"inserts":[[0,1]]}`, // unknown field
	}
	for _, body := range cases {
		if code := doJSON(t, "POST", ts.URL+"/graphs/"+info.ID+"/edges", []byte(body), "application/json", nil); code != http.StatusBadRequest {
			t.Fatalf("mutation %s -> %d, want 400", body, code)
		}
	}
	// Bad modes are rejected at submit time.
	spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "stars", Mode: ModeIncremental,
		Options: nwforest.Options{Alpha: 2, Eps: 0.5}})
	if code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", nil); code != http.StatusBadRequest {
		t.Fatalf("incremental stars -> %d, want 400", code)
	}
	spec, _ = json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose", Mode: "sideways",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5}})
	if code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown mode -> %d, want 400", code)
	}
}

// TestServeConcurrentClients hammers one server with parallel uploads and
// jobs across several algorithms — the acceptance scenario for serving
// concurrent decomposition jobs end-to-end.
func TestServeConcurrentClients(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4, QueueDepth: 64})
	graphs := []*graph.Graph{
		gen.ForestUnion(120, 2, 1),
		gen.ForestUnion(120, 3, 2),
		gen.SimpleForestUnion(120, 4, 3),
	}
	ids := make([]string, len(graphs))
	for i, g := range graphs {
		var info GraphInfo
		if code := doJSON(t, "POST", ts.URL+"/graphs", encode(t, g), "", &info); code != http.StatusCreated {
			t.Fatalf("upload %d -> %d", i, code)
		}
		ids[i] = info.ID
	}
	algos := []string{"decompose", "stars", "orient", "estimate-alpha"}
	errs := make(chan error, len(ids)*len(algos))
	for gi, id := range ids {
		for _, algo := range algos {
			if algo == "stars" && !graphs[gi].IsSimple() {
				algo = "decompose"
			}
			go func(id, algo string, alpha int) {
				spec, _ := json.Marshal(JobSpec{GraphID: id, Algorithm: algo,
					Options: nwforest.Options{Alpha: alpha, Eps: 0.5, Seed: 5}})
				var snap JobSnapshot
				if code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &snap); code != http.StatusAccepted && code != http.StatusOK {
					errs <- fmt.Errorf("%s on %s: submit -> %d", algo, id, code)
					return
				}
				var done JobSnapshot
				doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"?wait=30s", nil, "", &done)
				if done.State != JobDone {
					errs <- fmt.Errorf("%s on %s: state %s (%s)", algo, id, done.State, done.Error)
					return
				}
				errs <- nil
			}(id, algo, gi+2+2) // alpha bounds: 2,3,4 generated +2 slack
		}
	}
	for i := 0; i < len(ids)*len(algos); i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
