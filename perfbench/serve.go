package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"nwforest"
	"nwforest/internal/dynamic"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/load"
	"nwforest/internal/rng"
)

// serve-mix drives nwserve, in its default configuration, open loop:
// Poisson arrivals at a fixed rate over four forest-union graphs chosen
// with Zipf popularity, in a fixed class mix. The hit share is fixed by
// construction (hits repeat keys warmed during set-up; cold and
// incremental requests never repeat one), so it cannot drift as a seed
// pool warms.
const (
	serveGraphs  = 4
	serveForests = 3
	serveAlpha   = serveForests + 1 // covers the one-edge mutations
	serveEps     = 0.5
	serveMinN    = 256
	serveMaxN    = 1024
	serveZipfS   = 1.1
	// hitSeeds option seeds per graph are warmed during set-up; hits
	// draw from them.
	hitSeeds = 4
	// serveRate is sized so nwserve's workers are about half busy.
	serveRate = 38.0
	hitShare  = 0.7
	coldShare = 0.2 // the remaining 0.1 are incremental
	// pollWait bounds how late the client sees a job that finishes
	// while it is polling another one.
	pollWait       = 5 * time.Millisecond
	serveSetupReps = 3
	maxInFlight    = 256
	drainTimeout   = 60 * time.Second
	// Lag beyond this, or an achieved rate this far below the offered
	// one, means the generator fell behind and the run is invalid.
	maxLagP99Ms    = 50.0
	minAchievedFrc = 0.97
)

const (
	classHit  = "hit"
	classCold = "cold"
	classIncr = "incremental"
)

// server is one nwserve process.
type server struct {
	cmd  *exec.Cmd
	base string
}

// lineWriter captures the first line nwserve prints to standard
// output: the address it listens on.
type lineWriter struct {
	mu    sync.Mutex
	buf   []byte
	first chan string
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		w.first <- string(w.buf[:i])
		w.buf = nil
	}
	return len(p), nil
}

// startServer runs nwserve with its defaults on a free local port.
func startServer(bin string) (*server, error) {
	out := &lineWriter{buf: []byte{}, first: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = out
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start nwserve: %w", err)
	}
	s := &server{cmd: cmd}
	select {
	case line := <-out.first:
		const prefix = "nwserve: listening on "
		if !strings.HasPrefix(line, prefix) {
			s.stop()
			return nil, fmt.Errorf("nwserve printed %q before its address", line)
		}
		s.base = strings.TrimPrefix(line, prefix)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("nwserve did not report its address within 30s")
	}
	return s, nil
}

// stop terminates nwserve gracefully, waits for it to exit, and returns
// its resource usage.
func (s *server) stop() *syscall.Rusage {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	ru, _ := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

// cpuSeconds reads the process's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ut, st float64
	if _, err := fmt.Sscan(f[11], &ut); err != nil {
		return 0, err
	}
	if _, err := fmt.Sscan(f[12], &st); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (ut + st) / clockTicks, nil
}

// jobSpec and jobSnapshot mirror nwserve's wire format.
type jobSpec struct {
	GraphID   string           `json:"graph"`
	Algorithm string           `json:"algorithm"`
	Options   nwforest.Options `json:"options"`
	Mode      string           `json:"mode,omitempty"`
}

type jobSnapshot struct {
	ID     string           `json:"id"`
	State  string           `json:"state"`
	Result *nwforest.Result `json:"result"`
	Error  string           `json:"error"`
}

func (s *jobSnapshot) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// jobRecord is the part of a /jobs/history entry the benchmark reads.
type jobRecord struct {
	Mode        string    `json:"mode"`
	State       string    `json:"state"`
	Cached      bool      `json:"cached"`
	CreatedAt   time.Time `json:"createdAt"`
	QueueMillis float64   `json:"queueMillis"`
	RunMillis   float64   `json:"runMillis"`
}

// serveStats is the part of /stats the benchmark reads.
type serveStats struct {
	Dedups  int64 `json:"dedups"`
	Results struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"results"`
}

// client speaks to one nwserve over at most nproc connections: the
// submit path and the poller each get their own, so a long poll never
// holds the connection a submission needs.
type client struct {
	base         string
	submit, poll *http.Client
}

func newClient(base string) *client {
	conns := func(n int) *http.Client {
		return &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
		}
	}
	return &client{base: base, submit: conns(max(1, runtime.NumCPU()-1)), poll: conns(1)}
}

// do sends one request and decodes a JSON answer into out (when non-nil
// and the status is 2xx). It returns the status and the body's size.
func (c *client) do(ctx context.Context, hc *http.Client, method, path string, body []byte, out any) (int, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(raw), err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, len(raw), fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, len(raw), nil
}

func (c *client) upload(ctx context.Context, data []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/graphs", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := c.submit.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("upload: status %d: %v", resp.StatusCode, err)
	}
	return info.ID, nil
}

// serveGraph is one uploaded graph with the client's own copy.
type serveGraph struct {
	id      string
	g       *graph.Graph
	encoded []byte
	// warm maps a warmed option seed to its result's fingerprint.
	warm map[uint64]fingerprint
}

// arrival is one scheduled request, drawn entirely from the seed.
type arrival struct {
	due   time.Duration
	class string
	graph int
	seed  uint64
	edge  [2]int32 // the inserted edge of an incremental request
}

// outcome is what the client saw of one arrival.
type outcome struct {
	class            string
	ok, refused      bool
	latencyMs, lagMs float64
	submitMs         float64
	mutateMs         float64
	respBytes        int
	edges            int
	forests, rounds  int
}

// serveSetup is one set-up: server start, uploads and warm-up.
type serveSetup struct {
	srv      *server
	cl       *client
	graphs   []*serveGraph
	uploadMs []float64
}

func hitSeedOf(seed uint64, graph, i int) uint64 {
	return rng.New(seed).Split(uint64(100 + graph*hitSeeds + i)).Uint64()
}

func setupServe(ctx context.Context, bin string, seed uint64) (*serveSetup, error) {
	srv, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	su := &serveSetup{srv: srv, cl: newClient(srv.base)}
	fail := func(err error) (*serveSetup, error) {
		srv.stop()
		return nil, err
	}
	for i := 0; i < serveGraphs; i++ {
		n := serveMinN + (serveMaxN-serveMinN)*i/(serveGraphs-1)
		var buf bytes.Buffer
		if err := graph.Encode(&buf, shuffleEdges(gen.ForestUnion(n, serveForests, uint64(i)), seed)); err != nil {
			return fail(err)
		}
		g, _, err := graph.DecodeAuto(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fail(err)
		}
		t := time.Now()
		id, err := su.cl.upload(ctx, buf.Bytes())
		su.uploadMs = append(su.uploadMs, msSince(t))
		if err != nil {
			return fail(err)
		}
		su.graphs = append(su.graphs, &serveGraph{id: id, g: g, encoded: buf.Bytes(), warm: map[uint64]fingerprint{}})
	}
	// Warm every hit key: submit them all, then collect them in order.
	type warmJob struct {
		sg   *serveGraph
		seed uint64
		id   string
	}
	var jobs []warmJob
	for gi, sg := range su.graphs {
		for i := 0; i < hitSeeds; i++ {
			s := hitSeedOf(seed, gi, i)
			var snap jobSnapshot
			body, _ := json.Marshal(decomposeSpec(sg.id, s, ""))
			status, _, err := su.cl.do(ctx, su.cl.submit, http.MethodPost, "/jobs", body, &snap)
			if err != nil || status/100 != 2 {
				return fail(fmt.Errorf("warm-up submit: status %d: %v", status, err))
			}
			jobs = append(jobs, warmJob{sg, s, snap.ID})
		}
	}
	for _, j := range jobs {
		var snap jobSnapshot
		for !snap.terminal() {
			if _, _, err := su.cl.do(ctx, su.cl.poll, http.MethodGet, "/jobs/"+j.id+"?wait=5s", nil, &snap); err != nil {
				return fail(err)
			}
		}
		if snap.State != "done" || snap.Result == nil {
			return fail(fmt.Errorf("warm-up job %s ended %s: %s", j.id, snap.State, snap.Error))
		}
		d := snap.Result.Decomposition
		if err := checkDecomposition(j.sg.g, d, decomposeBound(decomposeReq(j.seed))); err != nil {
			return fail(fmt.Errorf("warm-up job %s: %w", j.id, err))
		}
		j.sg.warm[j.seed] = fingerprintOf(d)
	}
	return su, nil
}

func decomposeReq(seed uint64) nwforest.Request {
	return nwforest.Request{Algorithm: "decompose", Options: nwforest.Options{Alpha: serveAlpha, Eps: serveEps, Seed: seed}}
}

func decomposeSpec(graphID string, seed uint64, mode string) jobSpec {
	return jobSpec{GraphID: graphID, Algorithm: "decompose", Options: decomposeReq(seed).Options, Mode: mode}
}

// schedule draws every arrival of a run from the seed.
func schedule(seed uint64, seconds float64, graphs []*serveGraph) []arrival {
	times := load.Arrivals(serveRate, time.Duration(seconds*float64(time.Second)), seed)
	src := rng.New(seed).Split(3)
	zipf := load.NewZipf(len(graphs), serveZipfS)
	used := map[[3]int32]bool{}
	out := make([]arrival, len(times))
	for i, at := range times {
		a := arrival{due: at, graph: zipf.Draw(src)}
		switch u := src.Float64(); {
		case u < hitShare:
			a.class = classHit
			a.seed = hitSeedOf(seed, a.graph, src.Intn(hitSeeds))
		case u < hitShare+coldShare:
			a.class = classCold
			a.seed = rng.New(seed).Split(uint64(1_000_000 + i)).Uint64()
		default:
			a.class = classIncr
			a.seed = hitSeedOf(seed, a.graph, src.Intn(hitSeeds))
			n := graphs[a.graph].g.N()
			for {
				u, v := int32(src.Intn(n)), int32(src.Intn(n))
				key := [3]int32{int32(a.graph), min(u, v), max(u, v)}
				if u != v && !used[key] {
					used[key] = true
					a.edge = [2]int32{u, v}
					break
				}
			}
		}
		out[i] = a
	}
	return out
}

// poller follows queued jobs to their terminal state over one
// connection. The server's workers take jobs in submission order, so
// only the oldest `workers` pending jobs can be running; the poller
// long-polls those in turn for pollWait each.
type poller struct {
	cl      *client
	workers int
	mu      sync.Mutex
	pending []*pendingJob
	wake    chan struct{}
}

type pendingJob struct {
	id   string
	done chan *jobSnapshot // receives the terminal snapshot, or nil on error
}

func (p *poller) add(id string) *pendingJob {
	j := &pendingJob{id: id, done: make(chan *jobSnapshot, 1)}
	p.mu.Lock()
	p.pending = append(p.pending, j)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return j
}

func (p *poller) remove(j *pendingJob) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, q := range p.pending {
		if q == j {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			return
		}
	}
}

// run polls until ctx is done.
func (p *poller) run(ctx context.Context) {
	wait := "?wait=" + pollWait.String()
	for turn := 0; ; turn++ {
		p.mu.Lock()
		k := min(p.workers, len(p.pending))
		var j *pendingJob
		if k > 0 {
			j = p.pending[turn%k]
		}
		p.mu.Unlock()
		if j == nil {
			select {
			case <-p.wake:
				continue
			case <-ctx.Done():
				return
			}
		}
		var snap jobSnapshot
		_, _, err := p.cl.do(ctx, p.cl.poll, http.MethodGet, "/jobs/"+j.id+wait, nil, &snap)
		switch {
		case ctx.Err() != nil:
			return
		case err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: poll %s: %v\n", j.id, err)
			p.remove(j)
			j.done <- nil
		case snap.terminal():
			p.remove(j)
			j.done <- &snap
		}
	}
}

// fire sends one arrival and follows it to a verified result.
func fire(ctx context.Context, su *serveSetup, p *poller, a arrival, due time.Time) outcome {
	o := outcome{class: a.class, lagMs: msSince(due)}
	sg := su.graphs[a.graph]
	g, graphID, mode := sg.g, sg.id, ""
	failed := func(format string, args ...any) outcome {
		fmt.Fprintf(os.Stderr, "perfbench: %s request failed: %s\n", a.class, fmt.Sprintf(format, args...))
		o.latencyMs = msSince(due)
		return o
	}
	if a.class == classIncr {
		body, _ := json.Marshal(map[string]any{"insert": [][2]int32{a.edge}})
		var info struct {
			ID string `json:"id"`
			M  int    `json:"m"`
		}
		t := time.Now()
		status, _, err := su.cl.do(ctx, su.cl.submit, http.MethodPost, "/graphs/"+sg.id+"/edges", body, &info)
		o.mutateMs = msSince(t)
		if err != nil || status != http.StatusCreated {
			return failed("mutate: status %d: %v", status, err)
		}
		dg := dynamic.New(sg.g)
		if _, err := dg.InsertEdge(a.edge[0], a.edge[1]); err != nil {
			return failed("local mutate: %v", err)
		}
		dg.Freeze()
		g, graphID, mode = dg.Base(), info.ID, "incremental"
		if g.M() != info.M {
			return failed("child has %d edges, local copy %d", info.M, g.M())
		}
	}
	body, _ := json.Marshal(decomposeSpec(graphID, a.seed, mode))
	var snap jobSnapshot
	t := time.Now()
	status, n, err := su.cl.do(ctx, su.cl.submit, http.MethodPost, "/jobs", body, &snap)
	o.submitMs = msSince(t)
	o.respBytes = n
	switch {
	case status == http.StatusServiceUnavailable:
		o.refused = true
		return failed("refused (503)")
	case err != nil || status/100 != 2:
		return failed("submit: status %d: %v", status, err)
	}
	if !snap.terminal() {
		j := p.add(snap.ID)
		select {
		case s := <-j.done:
			if s == nil {
				return failed("poll failed")
			}
			snap = *s
		case <-ctx.Done():
			p.remove(j)
			return failed("abandoned at the drain deadline")
		}
	}
	if snap.State != "done" || snap.Result == nil {
		return failed("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	d := snap.Result.Decomposition
	if err := checkDecomposition(g, d, decomposeBound(decomposeReq(a.seed))); err != nil {
		return failed("job %s: %v", snap.ID, err)
	}
	if a.class == classHit {
		if fp := fingerprintOf(d); fp != sg.warm[a.seed] {
			return failed("job %s: hit returned %+v, warm-up %+v", snap.ID, fp, sg.warm[a.seed])
		}
	}
	o.ok, o.latencyMs = true, msSince(due)
	o.edges, o.forests, o.rounds = g.M(), d.NumForests, d.Rounds
	return o
}

func runServe(ctx context.Context, bin string, seed uint64, seconds float64, traced bool) (*result, error) {
	if bin == "" {
		return nil, errors.New("serve-mix needs --nwserve")
	}
	r := newResult()
	var su *serveSetup
	var setup []float64
	for i := 0; i < serveSetupReps; i++ {
		if su != nil {
			su.srv.stop()
		}
		t := time.Now()
		var err error
		if su, err = setupServe(ctx, bin, seed); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			su.srv.stop()
		}
	}()
	arrivals := schedule(seed, seconds, su.graphs)
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix %d arrivals over %gs, set-up %.3fs\n", len(arrivals), seconds, median(setup))

	var stats0 serveStats
	if _, _, err := su.cl.do(ctx, su.cl.poll, http.MethodGet, "/stats", nil, &stats0); err != nil {
		return nil, err
	}
	cpu0, err := su.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := &poller{cl: su.cl, workers: runtime.NumCPU(), wake: make(chan struct{}, 1)}
	pollDone := make(chan struct{})
	go func() { p.run(runCtx); close(pollDone) }()

	outcomes := make([]outcome, len(arrivals))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.NewTimer(0)
	<-timer.C
	for i, a := range arrivals {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			<-timer.C
		}
		select {
		case sem <- struct{}{}:
		default:
			outcomes[i] = outcome{class: a.class, refused: true, lagMs: msSince(due), latencyMs: msSince(due)}
			continue
		}
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[i] = fire(runCtx, su, p, a, due)
		}(i, a, due)
	}
	fired := time.Since(start).Seconds()
	cpu1, cpuErr := su.srv.cpuSeconds()
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		cancel()
		<-drained
	}
	cancel()
	<-pollDone
	elapsed := time.Since(start).Seconds()
	if cpuErr != nil {
		return nil, cpuErr
	}

	var t tally
	var lat, lags []float64
	misses := 0
	byClass := map[string][]float64{}
	var submitMs, hitMs, mutateMs, respKB []float64
	var edges int
	var forests, rounds []float64
	for _, o := range outcomes {
		lags = append(lags, o.lagMs)
		switch {
		case o.refused:
			t.refused++
			misses++
			continue
		case !o.ok:
			t.failed++
			misses++
			continue
		}
		t.ok++
		lat = append(lat, o.latencyMs)
		byClass[o.class] = append(byClass[o.class], o.latencyMs)
		submitMs = append(submitMs, o.submitMs)
		if o.class == classHit {
			hitMs = append(hitMs, o.submitMs)
			respKB = append(respKB, float64(o.respBytes)/1024)
		}
		if o.class == classIncr {
			mutateMs = append(mutateMs, o.mutateMs)
		}
		edges += o.edges
		forests = append(forests, float64(o.forests))
		rounds = append(rounds, float64(o.rounds))
	}
	r.tally = t
	samples := missLatencies(lat, misses, seconds*1000)
	p50, err := percentile(samples, 0.5)
	if err != nil {
		return nil, err
	}
	lagP99, err := percentile(lags, 0.99)
	if err != nil {
		return nil, err
	}
	offered := float64(len(arrivals)) / seconds
	achieved := float64(len(arrivals)) / max(fired, seconds)
	if lagP99 > maxLagP99Ms || achieved < minAchievedFrc*offered {
		r.problem("generator fell behind: lag p99 %.1f ms, achieved %.1f/s of %.1f/s offered: the run is invalid", lagP99, achieved, offered)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ok, %d failed, %d refused; p50 %.2f ms, lag p99 %.2f ms\n",
		t.ok, t.failed, t.refused, p50, lagP99)

	r.set("latency_p50_ms", p50, "ms")
	r.set("edges_per_s", float64(edges)/elapsed, "1/s")
	r.set("goodput_per_s", float64(t.ok)/elapsed, "1/s")
	r.set("ok_frac", t.okFrac(), "frac")
	r.set("forests", maxOf(forests), "count")
	r.set("rounds", maxOf(rounds), "count")
	r.set("setup_s", median(setup), "s")

	var stats1 serveStats
	var hist struct {
		History []jobRecord `json:"history"`
	}
	if traced {
		if _, _, err := su.cl.do(ctx, su.cl.poll, http.MethodGet, "/stats", nil, &stats1); err != nil {
			return nil, err
		}
		if _, _, err := su.cl.do(ctx, su.cl.poll, http.MethodGet, "/jobs/history", nil, &hist); err != nil {
			return nil, err
		}
	}
	stopped = true
	if ru := su.srv.stop(); ru != nil {
		r.set("runtime.peak_rss_mb", float64(ru.Maxrss)/1024, "MB") // Maxrss is in KiB
	}
	if !traced {
		return r, nil
	}

	r.layers = true
	p50Of := func(name string, xs []float64) {
		if v, err := percentile(xs, 0.5); err == nil {
			r.set(name, v, "ms")
		} else {
			r.problem("%s: %v", name, err)
		}
	}
	p90Of := func(name string, xs []float64) {
		if v, err := percentile(xs, 0.9); err == nil {
			r.set(name, v, "ms")
		} else {
			r.problem("%s: %v", name, err)
		}
	}
	if p99, err := percentile(samples, 0.99); err == nil {
		r.set("service.latency_p99_ms", p99, "ms")
	} else {
		r.problem("service.latency_p99_ms: %v", err)
	}
	r.set("service.upload_ms", mean(su.uploadMs), "ms")
	p50Of("service.submit_ms_p50", submitMs)
	p50Of("service.hit_ms_p50", hitMs)
	r.set("service.response_kb", mean(respKB), "KB")
	p50Of("service.mutate_ms_p50", mutateMs)
	p90Of("service.cold_ms_p90", byClass[classCold])
	var queueMs, runMs, repairMs []float64
	for _, rec := range hist.History {
		if rec.CreatedAt.Before(start) || rec.Cached || rec.State != "done" {
			continue
		}
		queueMs = append(queueMs, rec.QueueMillis)
		if rec.Mode == "incremental" {
			repairMs = append(repairMs, rec.RunMillis)
		} else {
			runMs = append(runMs, rec.RunMillis)
		}
	}
	p50Of("service.queue_ms_p50", queueMs)
	p90Of("service.queue_ms_p90", queueMs)
	p50Of("service.run_ms_p50", runMs)
	p50Of("dynamic.repair_ms_p50", repairMs)
	hits, misses64 := stats1.Results.Hits-stats0.Results.Hits, stats1.Results.Misses-stats0.Results.Misses
	r.set("service.cache_hit_frac", ratio(float64(hits), float64(hits+misses64)), "frac")
	r.set("service.dedup_frac", ratio(float64(stats1.Dedups-stats0.Dedups), float64(len(arrivals))), "frac")
	r.set("service.rejected", float64(t.refused), "count")
	r.set("service.cpu_frac", (cpu1-cpu0)/(fired*float64(runtime.NumCPU())), "frac")
	r.set("load.lag_p99_ms", lagP99, "ms")
	r.set("load.offered_per_s", offered, "1/s")
	r.set("load.achieved_per_s", achieved, "1/s")
	fmt.Fprintf(os.Stderr, "perfbench: hit share %.3f (configured %.2f)\n", float64(len(byClass[classHit]))/float64(len(arrivals)), hitShare)
	return r, replayCold(ctx, r, su, seed)
}

// replayCold splits a cold job's computation by layer: it reruns a cold
// request on the largest graph, whose cold jobs set the tail, in-process,
// untraced and then through the rebuilt pipeline.
func replayCold(ctx context.Context, r *result, su *serveSetup, seed uint64) error {
	sg := su.graphs[len(su.graphs)-1]
	req := decomposeReq(rng.New(seed).Split(1_000_000).Uint64())
	var want *nwforest.Result
	var runMs []float64
	mem0 := readRuntime()
	for i := 0; i < tracedPasses; i++ {
		t := time.Now()
		res, err := nwforest.Run(ctx, sg.g, req)
		runMs = append(runMs, msSince(t))
		if err != nil {
			return err
		}
		if err := checkDecomposition(sg.g, res.Decomposition, decomposeBound(req)); err != nil {
			return err
		}
		want = res
	}
	mem := readRuntime().since(mem0)
	r.set("runtime.alloc_mb_per_op", mem.allocBytes/1e6/tracedPasses, "MB")
	r.set("runtime.gc_frac", mem.gcFrac(), "frac")
	msgs, bits := phaseTraffic(want.Decomposition.Phases)
	r.set("dist.msgs", float64(msgs), "count")
	r.set("dist.bits", float64(bits), "count")
	return tracedBatch(ctx, r, decomposePipeline, sg.encoded, req, want, mean(runMs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
