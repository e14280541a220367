package load

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"nwforest/internal/service"
)

// TestRunAgainstLiveService drives the full open-loop engine against a
// real in-process nwserve: uploads graphs, fires a mixed workload, and
// checks the report's bookkeeping. The workload knobs (one option
// seed, few graphs, a rate well above what's needed for repeats) make
// cache hits certain; individual latencies are timing-dependent but
// the accounting identities are not.
func TestRunAgainstLiveService(t *testing.T) {
	svc, err := service.Open(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	ts := httptest.NewServer(service.NewHTTPHandler(svc))
	defer ts.Close()

	cfg := Config{
		BaseURL:             ts.URL,
		Rate:                150,
		Duration:            400 * time.Millisecond,
		Seed:                1,
		Graphs:              2,
		MinVertices:         100,
		MaxVertices:         400,
		Forests:             2,
		ZipfS:               1.1,
		IncrementalFraction: 0.25,
		AnytimeFraction:     0.25,
		AnytimeTimeout:      5 * time.Second, // generous: anytime jobs complete
		Seeds:               1,
		DrainTimeout:        30 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	tot := rep.Totals
	if tot.Submitted == 0 {
		t.Fatal("no jobs submitted")
	}
	if tot.Errors != 0 {
		t.Errorf("%d errors against an idle local server:\n%+v", tot.Errors, rep.Classes)
	}
	if tot.Completed == 0 {
		t.Error("no jobs completed")
	}
	if tot.CacheHits == 0 {
		t.Error("no cache hits despite a single-seed workload with repeats")
	}
	if tot.Submitted != tot.Completed+tot.Backpressure+tot.Canceled+tot.Errors {
		t.Errorf("accounting broken: submitted %d != completed %d + backpressure %d + canceled %d + errors %d",
			tot.Submitted, tot.Completed, tot.Backpressure, tot.Canceled, tot.Errors)
	}
	if tot.Latency.Count != tot.Completed {
		t.Errorf("latency count %d != completed %d", tot.Latency.Count, tot.Completed)
	}
	if rep.Goodput <= 0 {
		t.Error("goodput not positive")
	}
	if rep.Workload != cfg.Signature() {
		t.Errorf("report workload %q != config signature %q", rep.Workload, cfg.Signature())
	}

	// The server saw what the client counted: every client-observed
	// cached completion was a server-side cache hit — or an in-flight
	// dedup follower, which reports cached=true without a cache get.
	st := svc.Stats()
	if st.Results.Hits+st.Dedups < tot.CacheHits {
		t.Errorf("server counted %d cache hits + %d dedups, client observed %d cached",
			st.Results.Hits, st.Dedups, tot.CacheHits)
	}
}

// TestSignatureStable: the signature is a pure function of the workload
// knobs and ignores operational ones.
func TestSignatureStable(t *testing.T) {
	a := Config{Rate: 5, Duration: time.Second, Seed: 3}
	b := a
	b.PollWait = 17 * time.Second
	b.DrainTimeout = time.Minute
	if a.Signature() != b.Signature() {
		t.Errorf("operational knobs changed the signature:\n%s\n%s", a.Signature(), b.Signature())
	}
	c := a
	c.Rate = 6
	if a.Signature() == c.Signature() {
		t.Error("changing the rate did not change the signature")
	}

	// A single target is the single-target signature — which URL it is
	// stays operational — but fleet width is workload.
	d := a
	d.Targets = []string{"http://one:1"}
	if a.Signature() != d.Signature() {
		t.Errorf("single explicit target changed the signature:\n%s\n%s", a.Signature(), d.Signature())
	}
	e := a
	e.Targets = []string{"http://one:1", "http://two:2"}
	if a.Signature() == e.Signature() {
		t.Error("fleet width did not change the signature")
	}
	f := e
	f.Targets = []string{"http://three:3", "http://four:4"}
	if e.Signature() != f.Signature() {
		t.Errorf("target URLs (not width) changed the signature:\n%s\n%s", e.Signature(), f.Signature())
	}
}

// TestRunMultiTarget round-robins one run across two live servers and
// checks the fleet-specific report surface: arrivals split across both
// targets, per-target rows present and accounting against the totals,
// while a single-target run keeps Targets absent.
func TestRunMultiTarget(t *testing.T) {
	var servers [2]*httptest.Server
	for i := range servers {
		svc, err := service.Open(service.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(context.Background())
		servers[i] = httptest.NewServer(service.NewHTTPHandler(svc))
		defer servers[i].Close()
	}

	cfg := Config{
		Targets:        []string{servers[0].URL, servers[1].URL},
		Rate:           100,
		Duration:       300 * time.Millisecond,
		Seed:           2,
		Graphs:         2,
		MinVertices:    100,
		MaxVertices:    200,
		Forests:        2,
		AnytimeTimeout: 5 * time.Second,
		Seeds:          1,
		DrainTimeout:   30 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Totals.Errors != 0 {
		t.Errorf("%d errors against idle local servers:\n%+v", rep.Totals.Errors, rep.Classes)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("got %d target rows, want 2: %+v", len(rep.Targets), rep.Targets)
	}
	var submitted, completed, latCount int64
	for _, tr := range rep.Targets {
		if tr.Class != servers[0].URL && tr.Class != servers[1].URL {
			t.Errorf("target row names %q, not a target URL", tr.Class)
		}
		if tr.Submitted == 0 {
			t.Errorf("target %s saw no arrivals; round-robin broken", tr.Class)
		}
		submitted += tr.Submitted
		completed += tr.Completed
		latCount += tr.Latency.Count
	}
	// Targets are a second projection of the same jobs: their sums must
	// reproduce the class totals exactly.
	if submitted != rep.Totals.Submitted {
		t.Errorf("target submitted %d != totals %d", submitted, rep.Totals.Submitted)
	}
	if completed != rep.Totals.Completed {
		t.Errorf("target completed %d != totals %d", completed, rep.Totals.Completed)
	}
	if latCount != rep.Totals.Latency.Count {
		t.Errorf("target latency count %d != totals %d", latCount, rep.Totals.Latency.Count)
	}
	if rep.Workload != cfg.Signature() {
		t.Errorf("report workload %q != config signature %q", rep.Workload, cfg.Signature())
	}
}
