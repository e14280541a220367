package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"nwforest"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
	"nwforest/internal/rng"
)

// Config describes one nwload run. Every field that changes what the
// workload measures is folded into Signature; two reports gate against
// each other only when their signatures match.
type Config struct {
	// BaseURL is the nwserve root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Targets, when set, lists every nwserve base URL the run
	// round-robins arrivals across — the way nwload drives a fleet.
	// Empty means the single-target run [BaseURL]; BaseURL may be left
	// empty when Targets is set (the first target stands in for it).
	Targets []string
	// Rate is the open-loop arrival rate in jobs/second.
	Rate float64
	// Duration is how long arrivals are generated for.
	Duration time.Duration
	// Seed drives every random choice (arrival times, graph popularity,
	// class mix, option seeds).
	Seed uint64

	// Graphs is how many distinct graphs the run uploads and targets.
	Graphs int
	// MinVertices..MaxVertices is the graph size range; sizes are
	// interpolated so the Zipf-hottest graph is the largest.
	MinVertices, MaxVertices int
	// Forests is the arboricity knob: each graph is a union of this many
	// random spanning forests, so Forests is a hard arboricity bound.
	Forests int
	// ZipfS is the popularity exponent over graphs (0 = uniform).
	ZipfS float64

	// IncrementalFraction of arrivals run mode=incremental against a
	// mutated child of the chosen graph; AnytimeFraction run
	// anytime=true with AnytimeTimeout as the job deadline. The rest are
	// plain full recomputations.
	IncrementalFraction float64
	AnytimeFraction     float64
	AnytimeTimeout      time.Duration

	// Alpha and Eps are the job options. Alpha must cover the generated
	// graphs: 0 defaults it to Forests+1 (the +1 absorbs the mutation
	// batch the incremental children carry).
	Alpha int
	Eps   float64
	// Seeds is the size of the per-job option-seed pool. A small pool
	// makes repeat specs common, which is what exercises the result
	// cache; 0 defaults to 4.
	Seeds int

	// MaxInFlight bounds concurrently outstanding jobs; arrivals beyond
	// the cap are counted as Dropped, not queued (open loop sheds, it
	// does not backlog). 0 defaults to 256.
	MaxInFlight int
	// DrainTimeout bounds how long Run waits for outstanding jobs after
	// the last arrival. 0 defaults to 30s.
	DrainTimeout time.Duration
	// PollWait is the long-poll interval for job completion (the ?wait=
	// parameter). 0 defaults to 2s.
	PollWait time.Duration

	// Logf, when non-nil, receives setup/progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Graphs <= 0 {
		cfg.Graphs = 4
	}
	if cfg.MinVertices <= 0 {
		cfg.MinVertices = 512
	}
	if cfg.MaxVertices < cfg.MinVertices {
		cfg.MaxVertices = cfg.MinVertices
	}
	if cfg.Forests <= 0 {
		cfg.Forests = 3
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = cfg.Forests + 1
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 0.5
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 4
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 2 * time.Second
	}
	if cfg.AnytimeTimeout <= 0 {
		cfg.AnytimeTimeout = 150 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	ts := make([]string, 0, len(cfg.Targets))
	for _, t := range cfg.Targets {
		if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
			ts = append(ts, t)
		}
	}
	if len(ts) == 0 {
		ts = []string{cfg.BaseURL}
	}
	cfg.Targets = ts
	if cfg.BaseURL == "" {
		cfg.BaseURL = ts[0]
	}
	return cfg
}

// Signature canonicalizes the workload-defining fields. It deliberately
// excludes operational knobs (client, poll interval, drain timeout,
// logging) that do not change what is being measured.
func (c *Config) Signature() string {
	cfg := c.withDefaults()
	sig := fmt.Sprintf(
		"rate=%g,dur=%s,seed=%d,graphs=%d,minN=%d,maxN=%d,forests=%d,zipf=%g,incr=%g,anytime=%g,anytimeTimeout=%s,alpha=%d,eps=%g,seeds=%d,maxInFlight=%d,algorithm=decompose",
		cfg.Rate, cfg.Duration, cfg.Seed, cfg.Graphs, cfg.MinVertices, cfg.MaxVertices,
		cfg.Forests, cfg.ZipfS, cfg.IncrementalFraction, cfg.AnytimeFraction,
		cfg.AnytimeTimeout, cfg.Alpha, cfg.Eps, cfg.Seeds, cfg.MaxInFlight)
	if len(cfg.Targets) > 1 {
		// Fleet size changes what is measured (N queues, N result
		// caches), so multi-target runs only gate against runs of the
		// same width. Single-target signatures are unchanged — which
		// target URLs were used is operational, not workload.
		sig += fmt.Sprintf(",targets=%d", len(cfg.Targets))
	}
	return sig
}

// target is one uploaded graph the generator can aim jobs at.
type target struct {
	id      string // parent graph (full + anytime jobs)
	childID string // mutated child (incremental jobs)
	n, m    int
}

// jobSpec mirrors service.JobSpec's wire shape. load speaks the HTTP
// API only — importing internal/service here would let the types drift
// from what a real remote client sees.
type jobSpec struct {
	GraphID       string           `json:"graph"`
	Algorithm     string           `json:"algorithm"`
	Options       nwforest.Options `json:"options"`
	TimeoutMillis int64            `json:"timeoutMillis,omitempty"`
	Mode          string           `json:"mode,omitempty"`
	Anytime       bool             `json:"anytime,omitempty"`
}

// jobSnapshot mirrors the service's job snapshot JSON.
type jobSnapshot struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Result *struct {
		Anytime *struct {
			Partial    bool `json:"partial"`
			ColorsUsed int  `json:"colorsUsed"`
		} `json:"anytime"`
	} `json:"result"`
	Error string `json:"error"`
}

func (s *jobSnapshot) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// Run executes the configured workload against a live nwserve and
// returns the report. Setup (graph generation and upload) happens
// before the clock starts; the returned error covers setup and
// transport-level failures of the run loop itself, not individual job
// outcomes (those are the report's content).
func Run(ctx context.Context, c Config) (*Report, error) {
	cfg := c.withDefaults()
	targets, err := setup(ctx, &cfg)
	if err != nil {
		return nil, err
	}

	schedule := Arrivals(cfg.Rate, cfg.Duration, cfg.Seed)
	zipf := NewZipf(len(targets), cfg.ZipfS)
	base := rng.New(cfg.Seed)
	classSrc := base.Split(1)
	graphSrc := base.Split(2)
	seedSrc := base.Split(3)
	seedPool := make([]uint64, cfg.Seeds)
	for i := range seedPool {
		seedPool[i] = base.Split(100 + uint64(i)).Uint64()
	}

	rep := NewReporter()
	sem := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	// Workers poll on runCtx so a drain cutoff (or caller cancel) stops
	// them promptly; their jobs keep running server-side regardless.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	cfg.Logf("nwload: firing %d arrivals over %s at %g jobs/s", len(schedule), cfg.Duration, cfg.Rate)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i, at := range schedule {
		// The draws happen in arrival order on this goroutine, so the
		// (class, graph, seed) sequence is a pure function of the seed no
		// matter how the server behaves. Targets round-robin by arrival
		// index — also position-determined, so per-target rows compare
		// across runs.
		class := drawClass(classSrc, &cfg)
		tgt := targets[zipf.Draw(graphSrc)]
		optSeed := seedPool[seedSrc.Intn(len(seedPool))]
		base := cfg.Targets[i%len(cfg.Targets)]

		if d := time.Until(start.Add(at)); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		select {
		case sem <- struct{}{}:
		default:
			rep.Class(class).Dropped.Add(1)
			if len(cfg.Targets) > 1 {
				rep.Target(base).Dropped.Add(1)
			}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fire(runCtx, &cfg, rep, class, base, tgt, optSeed)
		}()
	}

	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(cfg.DrainTimeout):
		cancel() // abandoned pollers classify their jobs as canceled
		<-drained
	case <-ctx.Done():
		<-drained
		return nil, ctx.Err()
	}
	return rep.Snapshot(cfg.Signature(), cfg.Duration), nil
}

// drawClass picks the traffic class for one arrival. One uniform draw
// per arrival, split [0, incr) -> incremental, [incr, incr+any) ->
// anytime, rest full.
func drawClass(src *rng.Source, cfg *Config) string {
	u := src.Float64()
	switch {
	case u < cfg.IncrementalFraction:
		return ClassIncremental
	case u < cfg.IncrementalFraction+cfg.AnytimeFraction:
		return ClassAnytime
	default:
		return ClassFull
	}
}

// fire submits one job to base and follows it to a terminal state,
// recording the outcome under class — and, in multi-target runs, under
// the target it was fired at (cs holds one Counters per dimension).
func fire(ctx context.Context, cfg *Config, rep *Reporter, class, base string, tgt target, optSeed uint64) {
	cs := []*Counters{rep.Class(class)}
	if len(cfg.Targets) > 1 {
		cs = append(cs, rep.Target(base))
	}
	for _, c := range cs {
		c.Submitted.Add(1)
	}

	spec := jobSpec{
		GraphID:   tgt.id,
		Algorithm: "decompose",
		Options:   nwforest.Options{Alpha: cfg.Alpha, Eps: cfg.Eps, Seed: optSeed},
	}
	switch class {
	case ClassIncremental:
		spec.GraphID = tgt.childID
		spec.Mode = "incremental"
	case ClassAnytime:
		spec.Anytime = true
		spec.TimeoutMillis = cfg.AnytimeTimeout.Milliseconds()
	}

	started := time.Now()
	snap, status, err := postJob(ctx, cfg, base, spec)
	switch {
	case err != nil:
		for _, c := range cs {
			c.Errors.Add(1)
		}
		return
	case status == http.StatusServiceUnavailable:
		for _, c := range cs {
			c.Backpressure.Add(1)
		}
		return
	case status != http.StatusOK && status != http.StatusAccepted:
		for _, c := range cs {
			c.Errors.Add(1)
		}
		return
	}
	for !snap.terminal() {
		// Poll the node that accepted the job: job IDs are node-local.
		next, err := pollJob(ctx, cfg, base, snap.ID)
		if err != nil {
			if ctx.Err() != nil {
				// Drain cutoff or caller cancel: the client gave up on the
				// job, which is abandonment, not a server malfunction.
				for _, c := range cs {
					c.Canceled.Add(1)
				}
			} else {
				for _, c := range cs {
					c.Errors.Add(1)
				}
			}
			return
		}
		snap = next
	}
	switch snap.State {
	case "done":
		for _, c := range cs {
			c.Completed.Add(1)
			if snap.Cached {
				c.CacheHits.Add(1)
			}
			if snap.Result != nil && snap.Result.Anytime != nil && snap.Result.Anytime.Partial {
				c.Partials.Add(1)
			}
		}
		d := time.Since(started)
		rep.Observe(class, d)
		if len(cfg.Targets) > 1 {
			rep.ObserveTarget(base, d)
		}
	case "canceled":
		for _, c := range cs {
			c.Canceled.Add(1)
		}
	default:
		for _, c := range cs {
			c.Errors.Add(1)
		}
	}
}

func postJob(ctx context.Context, cfg *Config, base string, spec jobSpec) (*jobSnapshot, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, resp.StatusCode, nil
	}
	var snap jobSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, resp.StatusCode, err
	}
	return &snap, resp.StatusCode, nil
}

func pollJob(ctx context.Context, cfg *Config, base, id string) (*jobSnapshot, error) {
	url := fmt.Sprintf("%s/jobs/%s?wait=%s", base, id, cfg.PollWait)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: poll %s: status %d", id, resp.StatusCode)
	}
	var snap jobSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// setup generates and uploads the target graphs. Sizes run from
// MaxVertices (rank 0, the Zipf-hottest) down to MinVertices; each
// parent also gets one mutated child for the incremental class. Every
// graph and child goes to every target — content addressing makes the
// IDs identical everywhere — so a multi-target run works against plain
// independent servers as well as a cluster-mode fleet, and measures
// steady-state serving rather than first-touch graph transfer.
func setup(ctx context.Context, cfg *Config) ([]target, error) {
	targets := make([]target, cfg.Graphs)
	for i := range targets {
		n := cfg.MaxVertices
		if cfg.Graphs > 1 {
			n = cfg.MaxVertices - (cfg.MaxVertices-cfg.MinVertices)*i/(cfg.Graphs-1)
		}
		g := gen.ForestUnion(n, cfg.Forests, cfg.Seed+uint64(i)*7919)
		var id, childID string
		for _, base := range cfg.Targets {
			gid, err := uploadGraph(ctx, cfg, base, g)
			if err != nil {
				return nil, fmt.Errorf("load: upload graph %d to %s: %w", i, base, err)
			}
			cid, err := mutateGraph(ctx, cfg, base, gid, n)
			if err != nil {
				return nil, fmt.Errorf("load: derive child of graph %d on %s: %w", i, base, err)
			}
			if id == "" {
				id, childID = gid, cid
			} else if gid != id || cid != childID {
				return nil, fmt.Errorf("load: graph %d IDs disagree across targets: %s vs %s", i, short(id), short(gid))
			}
		}
		targets[i] = target{id: id, childID: childID, n: n, m: g.M()}
		cfg.Logf("nwload: graph %d: n=%d m=%d id=%s child=%s", i, g.N(), g.M(), short(id), short(childID))
	}
	return targets, nil
}

func uploadGraph(ctx context.Context, cfg *Config, base string, g *graph.Graph) (string, error) {
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/graphs", &buf)
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "text/plain")
	return graphInfoID(http.DefaultClient.Do(req))
}

// mutateGraph derives the incremental child: a short path of inserted
// edges (a forest, so it raises the arboricity bound by at most one —
// covered by the Alpha default of Forests+1).
func mutateGraph(ctx context.Context, cfg *Config, base, parentID string, n int) (string, error) {
	insert := make([][2]int32, 0, 4)
	for v := 0; v+1 < n && len(insert) < 4; v++ {
		insert = append(insert, [2]int32{int32(v), int32(v + 1)})
	}
	body, err := json.Marshal(map[string]any{"insert": insert})
	if err != nil {
		return "", err
	}
	url := base + "/graphs/" + parentID + "/edges"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	return graphInfoID(http.DefaultClient.Do(req))
}

// graphInfoID decodes a POST /graphs or /graphs/{id}/edges response
// down to the graph ID.
func graphInfoID(resp *http.Response, err error) (string, error) {
	if err != nil {
		return "", err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", err
	}
	if info.ID == "" {
		return "", fmt.Errorf("response carried no graph id")
	}
	return info.ID, nil
}

// short abbreviates a "sha256:..." graph ID for log lines.
func short(id string) string {
	if len(id) > 15 {
		return id[:15]
	}
	return id
}

// drainClose discards the rest of the body so the connection can be
// reused, then closes it.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20)) //nolint:errcheck
	body.Close()
}
