package experiments

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every registered experiment at scale 1
// and checks that the emitted tables are well-formed and contain no
// violated invariants.
func TestAllExperimentsRun(t *testing.T) {
	for _, r := range Registry {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			tab, err := r.Run(Config{Scale: 1, Seed: 12345})
			if err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			if tab.ID == "" || tab.Title == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("%s: malformed table %+v", r.Name, tab)
			}
			for _, row := range tab.Rows {
				if len(row) > len(tab.Header) {
					t.Fatalf("%s: row longer than header: %v", r.Name, row)
				}
			}
			out := tab.Format()
			if !strings.Contains(out, tab.ID) {
				t.Fatalf("%s: Format() missing ID", r.Name)
			}
			if strings.Contains(out, "VIOLATED") {
				t.Fatalf("%s: invariant violated:\n%s", r.Name, out)
			}
		})
	}
}

// TestExperimentsDeterministic runs every fast-tier experiment twice at
// scale 1 and requires equal rows and metrics: given a seed, every run
// is bit-identical. Only the values read from a clock or the allocator
// are skipped.
func TestExperimentsDeterministic(t *testing.T) {
	skipColumn := map[string]string{"exact": "ms", "dynamic": "speedup", "dispatch": "allocs/dispatch"}
	skipMetric := map[string]string{"dynamic": "speedup", "dispatch": "allocs_per_dispatch"}
	for _, r := range Registry {
		if r.Tier != "" {
			continue
		}
		t.Run(r.Name, func(t *testing.T) {
			var runs [2]*Table
			for i := range runs {
				tab, err := r.Run(Config{Scale: 1, Seed: 12345})
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if col := slices.Index(tab.Header, skipColumn[r.Name]); col >= 0 {
					for _, row := range tab.Rows {
						row[col] = ""
					}
				}
				delete(tab.Metrics, skipMetric[r.Name])
				runs[i] = tab
			}
			if !reflect.DeepEqual(runs[0].Rows, runs[1].Rows) {
				t.Fatalf("rows differ between runs:\n%v\n%v", runs[0].Rows, runs[1].Rows)
			}
			if !reflect.DeepEqual(runs[0].Metrics, runs[1].Metrics) {
				t.Fatalf("metrics differ between runs:\n%v\n%v", runs[0].Metrics, runs[1].Metrics)
			}
		})
	}
}

func TestFind(t *testing.T) {
	if Find("table1") == nil {
		t.Fatal("table1 not found")
	}
	if Find("nope") != nil {
		t.Fatal("bogus name found")
	}
}

func TestConfigScale(t *testing.T) {
	if (Config{}).scale() != 1 {
		t.Fatal("zero scale did not default to 1")
	}
	if (Config{Scale: 3}).scale() != 3 {
		t.Fatal("scale not preserved")
	}
}
