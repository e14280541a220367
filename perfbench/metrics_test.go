package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"nwforest/internal/gen"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json and metrics.go in
// step: the gated workloads, and the same metrics in the same order with
// the same units, directions and bounds.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"be-road", "serve-mix"}; !equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, table has %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, table %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, table has %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, table %+v", i, m, d)
		}
		if d.moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", d.name)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReportPrintsExactlyTheDeclaredMetrics(t *testing.T) {
	for _, layers := range []bool{false, true} {
		r := newResult()
		r.layers = layers
		r.tally = tally{ok: 3}
		r.set("latency_p50_ms", 1.5, "ms")
		r.set("core.algorithm2_ms", 2.5, "ms")
		raw, err := r.report()
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metricValue
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if layers {
			defs = perLayer
		}
		if !out.Correct || out.Attempted != 3 || len(out.Metrics) != len(defs) {
			t.Errorf("layers=%v: correct=%v attempted=%d, %d metrics; want true, 3, %d", layers, out.Correct, out.Attempted, len(out.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("layers=%v: metric %s = %+v, %v", layers, d.name, m, ok)
			}
		}
	}
	r := newResult()
	r.set("latency_p50_ms", 1, "s")
	if _, err := r.report(); err == nil {
		t.Error("a metric in the wrong unit was reported")
	}
	r = newResult()
	r.tally = tally{ok: 1, refused: 1}
	raw, err := r.report()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"correct":false,"attempted":2,"failed":1`)) {
		t.Errorf("refused op not reported as failed: %s", raw)
	}
}

func TestScheduleIsSeededAndHoldsTheMix(t *testing.T) {
	graphs := make([]*serveGraph, serveGraphs)
	for i := range graphs {
		graphs[i] = &serveGraph{g: gen.ForestUnion(64, serveForests, uint64(i))}
	}
	a := schedule(7, 600, graphs)
	b := schedule(7, 600, graphs)
	if len(a) != len(b) {
		t.Fatal("same seed, different schedules")
	}
	count := map[string]int{}
	edges := map[[3]int32]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two schedules of one seed", i)
		}
		count[a[i].class]++
		if a[i].class == classIncr {
			key := [3]int32{int32(a[i].graph), min(a[i].edge[0], a[i].edge[1]), max(a[i].edge[0], a[i].edge[1])}
			if edges[key] {
				t.Errorf("arrival %d repeats the mutation %v", i, key)
			}
			edges[key] = true
		}
	}
	n := float64(len(a))
	for class, want := range map[string]float64{classHit: hitShare, classCold: coldShare, classIncr: 1 - hitShare - coldShare} {
		if got := float64(count[class]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.3f, configured %.2f", class, got, want)
		}
	}
}
