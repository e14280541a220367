// Command nwbench regenerates the paper's tables and figures: it runs the
// registered experiments (see internal/experiments and EXPERIMENTS.md) and
// prints the measured tables.
//
// With -json it instead emits one machine-readable benchmark record per
// registered experiment — wall time, allocated bytes and allocation count
// per run, plus the experiment's own metrics (rounds, messages, colors,
// ...) — the format the committed BENCH_*.json baselines use and the CI
// bench-regression gate (cmd/benchcmp) compares against.
//
// Experiments are grouped into tiers: the fast tier (default) runs on
// every PR; the big tier (-tier big) holds the large-graph workloads the
// CI big-bench job runs at elevated -scale against BENCH_PR8_BIG.json.
//
// Usage:
//
//	nwbench -list
//	nwbench -exp table1
//	nwbench -exp all -scale 2 -seed 7
//	nwbench -json -count 3 -o BENCH_PR14.json
//	nwbench -tier big -scale 10 -seed 1 -json -count 2 -o BENCH_PR8_BIG.new.json
//	nwbench -json -cpuprofile cpu.pprof -o /dev/null   # profile for -pgo builds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nwforest/internal/experiments"
)

// BenchRecord is one experiment's measurement in the -json output.
type BenchRecord struct {
	Name     string             `json:"name"`
	NsOp     int64              `json:"ns_op"`
	BOp      int64              `json:"b_op"`
	AllocsOp int64              `json:"allocs_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// BenchFile is the top-level -json document. Tier is "" for the fast
// tier (so pre-existing baselines like BENCH_PR14.json stay comparable)
// and the tier name otherwise; benchcmp refuses to compare files from
// different tiers.
type BenchFile struct {
	Schema      int           `json:"schema"`
	Go          string        `json:"go"`
	CPU         string        `json:"cpu,omitempty"`
	Tier        string        `json:"tier,omitempty"`
	Scale       int           `json:"scale"`
	Seed        uint64        `json:"seed"`
	Count       int           `json:"count"`
	Experiments []BenchRecord `json:"experiments"`
}

func main() {
	exp := flag.String("exp", "all", "experiment name, or 'all'")
	tier := flag.String("tier", "fast", "with -exp all: which tier to run (fast, big, or all)")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	seed := flag.Uint64("seed", 12345, "random seed")
	list := flag.Bool("list", false, "list available experiments")
	jsonOut := flag.Bool("json", false, "emit machine-readable benchmark records instead of tables")
	count := flag.Int("count", 3, "with -json: runs per experiment (best wall time is kept)")
	out := flag.String("o", "-", "with -json: output file ('-' = stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the runs to this file (feeds go build -pgo)")
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry {
			t := r.Tier
			if t == "" {
				t = "fast"
			}
			fmt.Printf("%-12s [%s] %s\n", r.Name, t, r.Desc)
		}
		return
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed}
	var runners []experiments.Runner
	if *exp == "all" {
		for _, r := range experiments.Registry {
			if tierMatches(*tier, r.Tier) {
				runners = append(runners, r)
			}
		}
		if len(runners) == 0 {
			fmt.Fprintf(os.Stderr, "nwbench: no experiments in tier %q (want fast, big, or all)\n", *tier)
			os.Exit(2)
		}
	} else {
		// An explicit -exp bypasses the tier filter: naming an experiment
		// is already the selection.
		r := experiments.Find(*exp)
		if r == nil {
			fmt.Fprintf(os.Stderr, "nwbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		runners = []experiments.Runner{*r}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nwbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "nwbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *jsonOut {
		if err := runJSON(runners, cfg, *count, *out, fileTier(*tier, *exp)); err != nil {
			fmt.Fprintf(os.Stderr, "nwbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	failed := false
	for _, r := range runners {
		tab, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nwbench: %s: %v\n", r.Name, err)
			failed = true
			continue
		}
		fmt.Println(tab.Format())
	}
	if failed {
		os.Exit(1)
	}
}

// tierMatches reports whether a runner with the given Tier tag belongs
// to the -tier selection. Runners with an empty tag are the fast tier.
func tierMatches(sel, tag string) bool {
	switch sel {
	case "all":
		return true
	case "fast", "":
		return tag == ""
	default:
		return tag == sel
	}
}

// fileTier is the Tier recorded in the output document: "" for fast-tier
// runs (baseline compatibility) and single-experiment runs, the tier
// name otherwise.
func fileTier(tier, exp string) string {
	if exp != "all" || tier == "fast" || tier == "" {
		return ""
	}
	return tier
}

func runJSON(runners []experiments.Runner, cfg experiments.Config, count int, out, tier string) error {
	if count < 1 {
		count = 1
	}
	doc := BenchFile{
		Schema: 1,
		Go:     runtime.Version(),
		CPU:    cpuModel(),
		Tier:   tier,
		Scale:  cfg.Scale,
		Seed:   cfg.Seed,
		Count:  count,
	}
	for _, r := range runners {
		rec, err := measure(r, cfg, count)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		doc.Experiments = append(doc.Experiments, rec)
		fmt.Fprintf(os.Stderr, "nwbench: %-12s %12d ns/op %12d B/op %9d allocs/op\n",
			rec.Name, rec.NsOp, rec.BOp, rec.AllocsOp)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" || out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// measure runs one experiment count times and keeps the best wall time
// together with that run's allocation deltas. Experiments are
// deterministic given the seed, so allocation counts are stable across
// runs; wall time takes the minimum, the standard noise filter.
func measure(r experiments.Runner, cfg experiments.Config, count int) (BenchRecord, error) {
	rec := BenchRecord{Name: r.Name, NsOp: int64(^uint64(0) >> 1)}
	for i := 0; i < count; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		tab, err := r.Run(cfg)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return rec, err
		}
		if ns := elapsed.Nanoseconds(); ns < rec.NsOp {
			rec.NsOp = ns
			rec.BOp = int64(m1.TotalAlloc - m0.TotalAlloc)
			rec.AllocsOp = int64(m1.Mallocs - m0.Mallocs)
		}
		rec.Metrics = tab.Metrics
	}
	return rec, nil
}

// cpuModel best-effort identifies the host CPU so benchcmp can decide
// whether wall-time comparison against a baseline is meaningful. It
// returns "" when no concrete model name is available (non-Linux, or
// cpuinfo without a "model name" line, as on many arm64 machines):
// benchcmp treats an empty model as "unknown hardware" and skips the
// wall-time gate, whereas a generic fallback like GOARCH would make two
// unrelated machines look identical and gate noise.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
