package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"nwforest"
	"nwforest/internal/gen"
	"nwforest/internal/trace"
)

// traceDoc is the decoded shape of GET /jobs/{id}/trace for assertions.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestJobTraceEndToEnd is the tentpole acceptance path: a decompose job
// run through the HTTP surface exports a schema-valid Perfetto trace
// whose phase spans are exactly the result's cost breakdown, with
// messages and bits attached, alongside the request/queue/run lifecycle
// spans.
func TestJobTraceEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	var info GraphInfo
	doJSON(t, "POST", ts.URL+"/graphs", encode(t, gen.ForestUnion(400, 3, 7)), "", &info)
	spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 3}})
	var snap JobSnapshot
	if code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &snap); code != http.StatusAccepted {
		t.Fatalf("POST /jobs -> %d", code)
	}
	var done JobSnapshot
	doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"?wait=30s", nil, "", &done)
	if done.State != JobDone {
		t.Fatalf("job state %s (%s)", done.State, done.Error)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace -> %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateTraceEvents(body); err != nil {
		t.Fatalf("trace fails the trace-event schema: %v\n%s", err, body)
	}

	var doc traceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	phaseSpans := map[string]map[string]any{}
	spans := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Cat == "phase" && ev.Ph == "X":
			if _, dup := phaseSpans[ev.Name]; dup {
				t.Fatalf("phase %q exported twice", ev.Name)
			}
			phaseSpans[ev.Name] = ev.Args
		case ev.Ph == "X":
			spans[ev.Name] = true
		}
	}
	for _, want := range []string{"http POST /jobs", "queue", "run decompose"} {
		if !spans[want] {
			t.Errorf("missing lifecycle span %q; have %v", want, spans)
		}
	}
	// One span per dist.Cost phase of the result, carrying the exact
	// rounds/messages/bits the cost account charged.
	wantPhases := done.Result.Decomposition.Phases
	if len(wantPhases) == 0 {
		t.Fatal("result has no phase breakdown to compare against")
	}
	if len(phaseSpans) != len(wantPhases) {
		t.Fatalf("trace has %d phase spans, result breakdown has %d: %v vs %+v",
			len(phaseSpans), len(wantPhases), phaseSpans, wantPhases)
	}
	for _, p := range wantPhases {
		args := phaseSpans[p.Name]
		if args == nil {
			t.Fatalf("result phase %q has no span in the trace", p.Name)
		}
		if got := int(args["rounds"].(float64)); got != p.Rounds {
			t.Errorf("phase %q: trace rounds %d != result rounds %d", p.Name, got, p.Rounds)
		}
		if got := int64(args["messages"].(float64)); got != p.Messages {
			t.Errorf("phase %q: trace messages %d != result messages %d", p.Name, got, p.Messages)
		}
		if got := int64(args["bits"].(float64)); got != p.Bits {
			t.Errorf("phase %q: trace bits %d != result bits %d", p.Name, got, p.Bits)
		}
	}

	if code := doJSON(t, "GET", ts.URL+"/jobs/nope/trace", nil, "", nil); code != http.StatusNotFound {
		t.Fatalf("trace of unknown job -> %d, want 404", code)
	}
}

// TestJobTraceWhileRunningAndDisabled pins the endpoint's edge statuses:
// 409 for a job still executing, 404 when tracing is off entirely.
func TestJobTraceWhileRunningAndDisabled(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 1})
	svc.execHook = blockUntilCanceled
	id := addGraph(t, svc, gen.ForestUnion(20, 2, 1))
	spec, _ := json.Marshal(JobSpec{GraphID: id, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5}})
	var snap JobSnapshot
	doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &snap)
	waitForState(t, svc, snap.ID, JobRunning)
	if code := doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"/trace", nil, "", nil); code != http.StatusConflict {
		t.Fatalf("trace of running job -> %d, want 409", code)
	}
	doJSON(t, "DELETE", ts.URL+"/jobs/"+snap.ID, nil, "", nil)
	var fin JobSnapshot
	doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"?wait=10s", nil, "", &fin)
	if fin.State != JobCanceled {
		t.Fatalf("state %s, want canceled", fin.State)
	}
	// A canceled job still yields a trace: its queue/run spans are the
	// evidence of where the time went before cancellation.
	if code := doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"/trace", nil, "", nil); code != http.StatusOK {
		t.Fatalf("trace of canceled job -> %d, want 200", code)
	}

	off, tsOff := testServer(t, Config{Workers: 1, DisableTracing: true})
	idOff := addGraph(t, off, gen.ForestUnion(20, 2, 1))
	spec2, _ := json.Marshal(JobSpec{GraphID: idOff, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5}})
	var snap2 JobSnapshot
	doJSON(t, "POST", tsOff.URL+"/jobs", spec2, "application/json", &snap2)
	var done2 JobSnapshot
	doJSON(t, "GET", tsOff.URL+"/jobs/"+snap2.ID+"?wait=30s", nil, "", &done2)
	if done2.State != JobDone {
		t.Fatalf("job state %s with tracing off", done2.State)
	}
	if code := doJSON(t, "GET", tsOff.URL+"/jobs/"+snap2.ID+"/trace", nil, "", nil); code != http.StatusNotFound {
		t.Fatalf("trace with tracing disabled -> %d, want 404", code)
	}
	if st := off.Stats(); st.Trace != (trace.RingStats{}) {
		t.Fatalf("disabled tracing must report zero ring stats, got %+v", st.Trace)
	}
	// The history still records the job even with tracing off.
	recs := off.History("", "", 0)
	if len(recs) != 1 || recs[0].HasTrace {
		t.Fatalf("history with tracing off = %+v, want one record without a trace", recs)
	}
}

func waitForState(t *testing.T, svc *Service, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := svc.Get(id); ok && j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestJobHistoryEndToEnd drives computed, cached and canceled jobs
// through the service and checks GET /jobs/history: newest-first order,
// state/algorithm/limit filters, cost breakdowns only on computed jobs,
// and bad filter values rejected.
func TestJobHistoryEndToEnd(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 1})
	var info GraphInfo
	doJSON(t, "POST", ts.URL+"/graphs", encode(t, gen.ForestUnion(100, 2, 5)), "", &info)
	spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}})
	var first JobSnapshot
	doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &first)
	var done JobSnapshot
	doJSON(t, "GET", ts.URL+"/jobs/"+first.ID+"?wait=30s", nil, "", &done)
	if done.State != JobDone {
		t.Fatalf("job state %s (%s)", done.State, done.Error)
	}
	var second JobSnapshot // identical spec: a cache hit
	if code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &second); code != http.StatusOK {
		t.Fatalf("cache-hit submit -> %d, want 200", code)
	}
	// A canceled job, deterministically: run against a blocked hook.
	svc.execHook = blockUntilCanceled
	cancelSpec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 99}})
	var third JobSnapshot
	doJSON(t, "POST", ts.URL+"/jobs", cancelSpec, "application/json", &third)
	waitForState(t, svc, third.ID, JobRunning)
	doJSON(t, "DELETE", ts.URL+"/jobs/"+third.ID, nil, "", nil)
	var fin JobSnapshot
	doJSON(t, "GET", ts.URL+"/jobs/"+third.ID+"?wait=10s", nil, "", &fin)
	if fin.State != JobCanceled {
		t.Fatalf("state %s, want canceled", fin.State)
	}

	var hist struct {
		History []JobRecord `json:"history"`
	}
	doJSON(t, "GET", ts.URL+"/jobs/history", nil, "", &hist)
	if len(hist.History) != 3 {
		t.Fatalf("history has %d records, want 3: %+v", len(hist.History), hist.History)
	}
	// Newest first.
	if hist.History[0].ID != third.ID || hist.History[2].ID != first.ID {
		t.Fatalf("history not newest-first: %+v", hist.History)
	}
	computed, cached, canceled := hist.History[2], hist.History[1], hist.History[0]
	if computed.State != JobDone || computed.Cached || len(computed.Phases) == 0 ||
		computed.Rounds == 0 || !computed.HasTrace {
		t.Fatalf("computed record lacks its cost breakdown: %+v", computed)
	}
	if cached.State != JobDone || !cached.Cached || len(cached.Phases) != 0 {
		t.Fatalf("cached record must carry no breakdown: %+v", cached)
	}
	if canceled.State != JobCanceled || canceled.Error == "" {
		t.Fatalf("canceled record: %+v", canceled)
	}
	if computed.RunMillis <= 0 || computed.QueueMillis < 0 {
		t.Fatalf("computed record timings: %+v", computed)
	}
	if computed.GraphID != info.ID || computed.Algorithm != "decompose" {
		t.Fatalf("computed record identity: %+v", computed)
	}

	doJSON(t, "GET", ts.URL+"/jobs/history?state=canceled", nil, "", &hist)
	if len(hist.History) != 1 || hist.History[0].ID != third.ID {
		t.Fatalf("state filter: %+v", hist.History)
	}
	doJSON(t, "GET", ts.URL+"/jobs/history?state=done&limit=1", nil, "", &hist)
	if len(hist.History) != 1 || hist.History[0].ID != second.ID {
		t.Fatalf("limit must keep the newest match: %+v", hist.History)
	}
	doJSON(t, "GET", ts.URL+"/jobs/history?algorithm=orient", nil, "", &hist)
	if len(hist.History) != 0 {
		t.Fatalf("algorithm filter matched %+v", hist.History)
	}
	for _, bad := range []string{"?state=bogus", "?state=running", "?limit=-1", "?limit=x"} {
		if code := doJSON(t, "GET", ts.URL+"/jobs/history"+bad, nil, "", nil); code != http.StatusBadRequest {
			t.Errorf("GET /jobs/history%s -> %d, want 400", bad, code)
		}
	}
}

// TestHistoryEviction bounds the history ring: beyond HistoryCapacity
// the oldest records fall off while the added/evicted counters keep the
// full story.
func TestHistoryEviction(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, HistoryCapacity: 2})
	id := addGraph(t, svc, gen.ForestUnion(50, 2, 3))
	var lastID string
	for seed := uint64(0); seed < 4; seed++ {
		j, err := svc.Submit(JobSpec{GraphID: id, Algorithm: "decompose",
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		snap := svc.Wait(ctx, j)
		cancel()
		if snap.State != JobDone {
			t.Fatalf("job %s: %s (%s)", snap.ID, snap.State, snap.Error)
		}
		lastID = snap.ID
	}
	st := svc.Stats().History
	if st.Entries != 2 || st.Added != 4 || st.Evicted != 2 {
		t.Fatalf("history stats = %+v, want 2 entries / 4 added / 2 evicted", st)
	}
	recs := svc.History("", "", 0)
	if len(recs) != 2 || recs[0].ID != lastID {
		t.Fatalf("retained records = %+v, want the 2 newest", recs)
	}
}

// TestStatsMetricsConsistency is the drift regression: /metrics is
// derived from the same Stats snapshot /stats serializes, so with the
// service quiesced the two endpoints must agree number for number.
func TestStatsMetricsConsistency(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 2})
	id := addGraph(t, svc, gen.ForestUnion(100, 2, 5))
	for seed := uint64(0); seed < 3; seed++ {
		j, err := svc.Submit(JobSpec{GraphID: id, Algorithm: "decompose",
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		svc.Wait(ctx, j)
		cancel()
	}

	var st Stats
	doJSON(t, "GET", ts.URL+"/stats", nil, "", &st)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metric := func(name string) float64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(body)
		if m == nil {
			t.Fatalf("metric %s missing from /metrics:\n%s", name, body)
		}
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for name, want := range map[string]float64{
		"nwserve_workers":                  float64(st.Workers),
		"nwserve_queue_capacity":           float64(st.QueueCap),
		"nwserve_jobs_deduped_total":       float64(st.Dedups),
		"nwserve_store_graphs":             float64(st.Store.Graphs),
		"nwserve_result_cache_entries":     float64(st.Results.Size),
		"nwserve_traces_total":             float64(st.Trace.Added),
		"nwserve_trace_entries":            float64(st.Trace.Entries),
		"nwserve_history_records_total":    float64(st.History.Added),
		"nwserve_history_entries":          float64(st.History.Entries),
		"nwserve_history_evictions_total":  float64(st.History.Evicted),
		`nwserve_jobs{state="done"}`:       float64(st.Jobs[string(JobDone)]),
		`nwserve_phase_self_seconds_count`: 0, // labeled series asserted below
	} {
		if name == "nwserve_phase_self_seconds_count" {
			continue
		}
		if got := metric(name); got != want {
			t.Errorf("%s = %v in /metrics, %v in /stats", name, got, want)
		}
	}
	// The per-phase series exist and agree with the ring's totals.
	totals := svc.traces.PhaseTotals()
	if len(totals) == 0 {
		t.Fatal("no phase totals after computed jobs")
	}
	for _, pt := range totals {
		name := fmt.Sprintf(`nwserve_phase_rounds_total{phase="%s"}`, pt.Name)
		if got := metric(name); got != float64(pt.Rounds) {
			t.Errorf("%s = %v, ring total %d", name, got, pt.Rounds)
		}
	}
}

// TestIncrementalJobTraced: the warm-start repair path reports its
// charges through the same span hook, so an incremental job's trace has
// phase spans too.
func TestIncrementalJobTraced(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	base := gen.ForestUnion(60, 2, 9)
	baseID := addGraph(t, svc, base)
	run := func(graphID, mode string) JobSnapshot {
		t.Helper()
		j, err := svc.Submit(JobSpec{GraphID: graphID, Algorithm: "decompose", Mode: mode,
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 5}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		snap := svc.Wait(ctx, j)
		if snap.State != JobDone {
			t.Fatalf("job %s: %s (%s)", snap.ID, snap.State, snap.Error)
		}
		return snap
	}
	run(baseID, "") // warm start for the child version
	child, err := svc.Store().Mutate(baseID, Mutation{Insert: [][2]int32{{0, 59}}})
	if err != nil {
		t.Fatal(err)
	}
	snap := run(child.ID, ModeIncremental)
	rec, ok := svc.Trace(snap.ID)
	if !ok {
		t.Fatal("incremental job has no trace")
	}
	if len(rec.Phases()) == 0 {
		t.Fatalf("incremental trace has no phase spans; result phases: %+v",
			snap.Result.Decomposition.Phases)
	}
}

// TestTraceAndHistoryReadyAfterWait: a job's trace is in the ring and
// its history record appended before Wait returns. Many short jobs, each
// read the moment Wait returns, would catch a job whose done channel
// closed before its observability was finalized.
func TestTraceAndHistoryReadyAfterWait(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	graphID := addGraph(t, svc, gen.ForestUnion(12, 2, 3))
	for seed := uint64(1); seed <= 400; seed++ {
		j, err := svc.Submit(JobSpec{GraphID: graphID, Algorithm: "decompose",
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		snap := waitDone(t, svc, j)
		if _, ok := svc.Trace(snap.ID); !ok {
			t.Fatalf("job %s (%s): no trace right after Wait", snap.ID, snap.State)
		}
		if h := svc.History("", "", 1); len(h) == 0 || h[0].ID != snap.ID {
			t.Fatalf("job %s (%s): newest history record is %+v right after Wait", snap.ID, snap.State, h)
		}
	}
}
