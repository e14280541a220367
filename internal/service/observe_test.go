package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwforest"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/telemetry"
)

// readSSE consumes one SSE stream, returning the decoded events in
// arrival order. It stops at EOF (the server ends job streams at the
// terminal event).
func readSSE(t *testing.T, r io.Reader) []JobEvent {
	t.Helper()
	var events []JobEvent
	var eventName string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			eventName = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev JobEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			if ev.Type != eventName {
				t.Fatalf("SSE event name %q disagrees with payload type %q", eventName, ev.Type)
			}
			events = append(events, ev)
		case line == "":
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestJobEventsSSE runs a real decomposition through the HTTP surface
// and follows its progress stream: lifecycle transitions arrive in
// order, algorithm phases and round totals appear as the cost account is
// charged, sequence numbers are strictly increasing, and the stream ends
// with the terminal event.
func TestJobEventsSSE(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	var info GraphInfo
	// Modest size: the event history replays to late subscribers, so the
	// assertions hold whether the stream is consumed live or after the
	// job finished.
	doJSON(t, "POST", ts.URL+"/graphs", encode(t, gen.ForestUnion(800, 3, 7)), "", &info)
	spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 3}})
	var snap JobSnapshot
	if code := doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &snap); code != http.StatusAccepted {
		t.Fatalf("POST /jobs -> %d", code)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) < 3 {
		t.Fatalf("only %d events: %+v", len(events), events)
	}
	var lastSeq int64
	var sawRunning, sawPhase bool
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("sequence numbers not increasing: %+v", events)
		}
		lastSeq = ev.Seq
		switch {
		case ev.Type == "state" && ev.State == JobRunning:
			sawRunning = true
		case ev.Type == "phase" || ev.Type == "progress":
			sawPhase = true
			if ev.Phase == "" {
				t.Fatalf("progress event without a phase: %+v", ev)
			}
		}
	}
	final := events[len(events)-1]
	if final.Type != "state" || final.State != JobDone {
		t.Fatalf("stream did not end with the done event: %+v", final)
	}
	if !sawRunning || !sawPhase {
		t.Fatalf("missing lifecycle (running=%v) or phase (%v) events: %+v", sawRunning, sawPhase, events)
	}

	// A subscriber arriving after the job finished replays the same
	// history instead of hanging.
	resp2, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay := readSSE(t, resp2.Body)
	if len(replay) != len(events) {
		t.Fatalf("replay returned %d events, live stream %d", len(replay), len(events))
	}

	if code := doJSON(t, "GET", ts.URL+"/jobs/nope/events", nil, "", nil); code != http.StatusNotFound {
		t.Fatalf("events for unknown job -> %d, want 404", code)
	}
}

// TestPhaseNamesAgreeAcrossViews runs a full decompose job (α below the
// graph's arboricity, so the leftover recoloring's peel charges traffic
// too) and then a mode=incremental job on a one-edge child, and checks
// that the three views of each job's cost name the same phases in the
// same order: the distinct phases of its SSE "phase" events in
// first-appearance order, its trace's phases, and its history record's
// phases. With tracing off, the SSE phase and progress events must be
// the ones the traced service streamed.
func TestPhaseNamesAgreeAcrossViews(t *testing.T) {
	type jobEvents struct{ full, incremental []JobEvent }
	run := func(cfg Config) jobEvents {
		t.Helper()
		svc, ts := testServer(t, cfg)
		baseID := addGraph(t, svc, gen.Gnm(200, 800, 3))
		child, err := svc.Store().Mutate(baseID, Mutation{Insert: [][2]int32{{0, 199}}})
		if err != nil {
			t.Fatal(err)
		}
		var out jobEvents
		for _, c := range []struct {
			graphID, mode string
			events        *[]JobEvent
		}{
			{baseID, "", &out.full},
			{child.ID, ModeIncremental, &out.incremental},
		} {
			j, err := svc.Submit(JobSpec{GraphID: c.graphID, Algorithm: "decompose", Mode: c.mode,
				Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 5}})
			if err != nil {
				t.Fatal(err)
			}
			snap := waitDone(t, svc, j)
			if snap.State != JobDone || snap.Cached {
				t.Fatalf("job %s: %s cached=%v (%s)", snap.ID, snap.State, snap.Cached, snap.Error)
			}
			resp, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			var sse []string
			repaired := false
			for _, ev := range readSSE(t, resp.Body) {
				switch ev.Type {
				case "phase", "progress":
					*c.events = append(*c.events, JobEvent{Type: ev.Type, Phase: ev.Phase,
						PhaseRounds: ev.PhaseRounds, Rounds: ev.Rounds})
					if ev.Type == "phase" && !slices.Contains(sse, ev.Phase) {
						sse = append(sse, ev.Phase)
					}
				case "repair":
					repaired = true
				}
			}
			resp.Body.Close()
			if len(sse) == 0 {
				t.Fatalf("job %s streamed no phase events", snap.ID)
			}
			if repaired != (c.mode == ModeIncremental) {
				t.Fatalf("job %s (mode %q): repair event streamed = %v", snap.ID, c.mode, repaired)
			}
			var history []string
			for _, r := range svc.History("", "", 0) {
				if r.ID == snap.ID {
					for _, p := range r.Phases {
						history = append(history, p.Name)
					}
				}
			}
			if !slices.Equal(history, sse) {
				t.Fatalf("job %s: history phases %v, SSE phases %v", snap.ID, history, sse)
			}
			rec, traced := svc.Trace(snap.ID)
			if traced == cfg.DisableTracing {
				t.Fatalf("job %s: trace present = %v with DisableTracing = %v", snap.ID, traced, cfg.DisableTracing)
			}
			if traced {
				var spans []string
				for _, p := range rec.Phases() {
					spans = append(spans, p.Name)
				}
				if !slices.Equal(spans, sse) {
					t.Fatalf("job %s: trace phases %v, SSE phases %v", snap.ID, spans, sse)
				}
			}
		}
		return out
	}
	on := run(Config{Workers: 1})
	off := run(Config{Workers: 1, DisableTracing: true})
	if !slices.Equal(on.full, off.full) || !slices.Equal(on.incremental, off.incremental) {
		t.Fatalf("SSE phase events differ with tracing off:\n on %+v\noff %+v", on, off)
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and checks the
// payload is valid Prometheus text exposition carrying the serving
// counters and the per-algorithm latency histogram.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	var info GraphInfo
	doJSON(t, "POST", ts.URL+"/graphs", encode(t, gen.ForestUnion(100, 2, 5)), "", &info)
	spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}})
	var snap JobSnapshot
	doJSON(t, "POST", ts.URL+"/jobs", spec, "application/json", &snap)
	var done JobSnapshot
	doJSON(t, "GET", ts.URL+"/jobs/"+snap.ID+"?wait=30s", nil, "", &done)
	if done.State != JobDone {
		t.Fatalf("job state %s (%s)", done.State, done.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("content type %q", resp.Header.Get("Content-Type"))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		`nwserve_jobs{state="done"} 1`,
		"nwserve_store_graphs 1",
		`nwserve_job_duration_seconds_count{algorithm="decompose"} 1`,
		"nwserve_result_cache_misses_total 1",
		"nwserve_workers 1",
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("missing %q in /metrics:\n%s", want, body)
		}
	}
}

// TestMetricsWithPersistence checks the durability tier's series appear
// (and stay valid) when a data directory is configured.
func TestMetricsWithPersistence(t *testing.T) {
	svc := openTestService(t, Config{Workers: 1, DataDir: t.TempDir(), SnapshotInterval: -1})
	if _, err := svc.Store().AddBytes(encode(t, gen.ForestUnion(30, 2, 1)), graph.FormatAuto); err != nil {
		t.Fatal(err)
	}
	if err := svc.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	svc.MetricsHandler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	body := w.Body.String()
	if err := telemetry.ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		"nwserve_wal_records_total 1",
		"nwserve_snapshots_total 1",
		"nwserve_persist_graph_files_total 1",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("missing %q in /metrics:\n%s", want, body)
		}
	}
}

// TestResultCacheEvictionStatsConsistency hammers the result cache with
// more distinct computations than its byte budget can hold, from many
// goroutines, while a monitor watches /stats-level counters. Invariants:
// hits+misses always equals the number of submissions (Submit consults
// the cache exactly once), the byte budget is never observed exceeded,
// and the eviction counter is monotone.
func TestResultCacheEvictionStatsConsistency(t *testing.T) {
	svc := newTestService(t, Config{
		Workers:          4,
		QueueDepth:       4096,
		ResultCapacity:   1024,
		ResultCacheBytes: 8 << 10, // a few KB: forces constant eviction
	})
	info, err := svc.Store().AddBytes(encode(t, gen.ForestUnion(50, 2, 3)), graph.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	specFor := func(seed uint64) JobSpec {
		return JobSpec{GraphID: info.ID, Algorithm: "decompose",
			Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: seed}}
	}

	stop := make(chan struct{})
	var monitorErr atomic.Value
	go func() {
		var lastEvictions int64
		for {
			st := svc.cache.stats()
			if st.Bytes > st.MaxBytes && st.Size > 1 {
				monitorErr.Store(fmt.Errorf("cache over budget: %d > %d with %d entries",
					st.Bytes, st.MaxBytes, st.Size))
			}
			if st.Evictions < lastEvictions {
				monitorErr.Store(fmt.Errorf("evictions went backwards: %d -> %d",
					lastEvictions, st.Evictions))
			}
			lastEvictions = st.Evictions
			select {
			case <-stop:
				return
			default:
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	const goroutines, perG = 6, 20
	var submitted atomic.Int64
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Half the seeds are shared across goroutines so some
				// submissions dedup onto in-flight leaders or hit the cache.
				seed := uint64(gi*perG + i)
				if i%2 == 0 {
					seed = uint64(i)
				}
				j, err := svc.Submit(specFor(seed))
				if err != nil {
					t.Error(err)
					return
				}
				submitted.Add(1)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				snap := svc.Wait(ctx, j)
				cancel()
				if snap.State != JobDone {
					t.Errorf("job %s: %s (%s)", snap.ID, snap.State, snap.Error)
					return
				}
			}
		}(gi)
	}
	wg.Wait()

	// A deterministic hit: recompute-or-hit, then an immediate identical
	// resubmission with nothing else running must be served from cache.
	j, err := svc.Submit(specFor(999))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	svc.Wait(ctx, j)
	cancel()
	submitted.Add(1)
	j2, err := svc.Submit(specFor(999))
	if err != nil {
		t.Fatal(err)
	}
	submitted.Add(1)
	if snap := j2.Snapshot(); snap.State != JobDone || !snap.Cached {
		t.Fatalf("immediate resubmission state=%s cached=%v, want cache hit", snap.State, snap.Cached)
	}
	close(stop)
	if err, ok := monitorErr.Load().(error); ok && err != nil {
		t.Fatal(err)
	}

	st := svc.cache.stats()
	if st.Hits+st.Misses != submitted.Load() {
		t.Fatalf("hits(%d)+misses(%d) != submissions(%d)", st.Hits, st.Misses, submitted.Load())
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget with %d submissions", st.MaxBytes, submitted.Load())
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("final cache bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
	if st.Hits == 0 {
		t.Fatal("no cache hits despite repeated seeds")
	}
}
