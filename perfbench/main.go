// Command perfbench is the repository benchmark. One run measures one
// workload and prints, as the last line of its standard output, a JSON
// object with the run's end-to-end metrics (--trace 0) or its per-layer
// metrics (--trace 1); progress and failures go to standard error.
//
// Usage, from the repository root (perfbench/run.py builds and runs it):
//
//	perfbench --workload be-road --seed 1 --seconds 30 --trace 0
//
// The gated workloads, metrics and their bounds are listed in
// BENCHMARK.json and, with the reasons behind them, in metrics.go and
// README.md. decompose-road runs the same way but is not gated: its
// median spread too far between runs on a shared two-core host.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "workload name: decompose-road, be-road or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "how long the run measures")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	nwserve := flag.String("nwserve", "", "path to the nwserve binary (serve-mix)")
	flag.Parse()

	ctx := context.Background()
	var r *result
	var err error
	switch *workload {
	case "decompose-road":
		r, err = runBatch(ctx, decomposeRoad, *seed, *seconds, *trace == 1)
	case "be-road":
		r, err = runBatch(ctx, beRoad, *seed, *seconds, *trace == 1)
	case "serve-mix":
		r, err = runServe(ctx, *nwserve, *seed, *seconds, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := r.report()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run measured.
type result struct {
	tally   tally
	metrics map[string]metricValue
	// layers marks a traced run, which reports per-layer metrics only.
	layers bool
	// problems are failed self-checks: a traced pass that does not
	// match Run or leaves its time unaccounted for, or an open-loop
	// generator that fell behind its schedule.
	problems []string
}

func newResult() *result { return &result{metrics: map[string]metricValue{}} }

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metricValue{v, unit}
}

func (r *result) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: self-check failed:", msg)
	r.problems = append(r.problems, msg)
}

// report renders the result line: exactly the end-to-end or exactly the
// per-layer metrics of the table in metrics.go. A layer the workload
// never reaches reads 0.
func (r *result) report() ([]byte, error) {
	defs := endToEnd
	if r.layers {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			v = metricValue{0, d.unit}
		}
		if v.Unit != d.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, v.Unit, d.unit)
		}
		out[d.name] = v
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{
		Correct:   r.tally.failed+r.tally.refused == 0 && len(r.problems) == 0,
		Attempted: r.tally.attempted(),
		Failed:    r.tally.failed + r.tally.refused,
		Metrics:   out,
	})
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func (s runtimeSample) since(t runtimeSample) runtimeSample {
	return runtimeSample{s.allocBytes - t.allocBytes, s.gcCPU - t.gcCPU, s.totalCPU - t.totalCPU}
}

// gcFrac is the share of the CPU time available to the process that the
// garbage collector used.
func (s runtimeSample) gcFrac() float64 {
	if s.totalCPU <= 0 {
		return 0
	}
	return s.gcCPU / s.totalCPU
}

// selfPeakRSSMB is this process's resident-set high-water mark.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
