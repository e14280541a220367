package nwforest_test

import (
	"reflect"
	"testing"

	"nwforest"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
)

func decomposeBoth(t *testing.T, g *graph.Graph, opts nwforest.Options, alphaStar int) (*nwforest.Decomposition, *nwforest.Decomposition) {
	t.Helper()
	d, err := nwforest.Decompose(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	be, err := nwforest.DecomposeBE(g, alphaStar, opts.Eps)
	if err != nil {
		t.Fatal(err)
	}
	return d, be
}

func checkSameDecomposition(t *testing.T, label string, a, b *nwforest.Decomposition) {
	t.Helper()
	if !reflect.DeepEqual(a.Colors, b.Colors) {
		t.Fatalf("%s: Colors differ", label)
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("%s: Rounds %d vs %d", label, a.Rounds, b.Rounds)
	}
	if !reflect.DeepEqual(a.Phases, b.Phases) {
		t.Fatalf("%s: Phases differ:\n%+v\nvs\n%+v", label, a.Phases, b.Phases)
	}
}

func checkPhasesSumToRounds(t *testing.T, label string, d *nwforest.Decomposition) {
	t.Helper()
	sum := 0
	for _, p := range d.Phases {
		sum += p.Rounds
	}
	if sum != d.Rounds {
		t.Fatalf("%s: phase rounds sum to %d, Rounds = %d (phases %+v)", label, sum, d.Rounds, d.Phases)
	}
}

// TestDecomposeDeterministic pins the determinism contract at the public
// API: for a fixed Options.Seed, Decompose and DecomposeBE return
// identical Colors, Rounds and Phases across repeated runs.
func TestDecomposeDeterministic(t *testing.T) {
	g := gen.ForestUnion(400, 5, 13)
	opts := nwforest.Options{Alpha: 5, Eps: 0.5, Seed: 99}

	d1, be1 := decomposeBoth(t, g, opts, 5)
	d2, be2 := decomposeBoth(t, g, opts, 5)
	checkSameDecomposition(t, "Decompose repeat", d1, d2)
	checkSameDecomposition(t, "DecomposeBE repeat", be1, be2)

	for _, c := range []struct {
		label string
		d     *nwforest.Decomposition
	}{{"Decompose", d1}, {"DecomposeBE", be1}} {
		checkPhasesSumToRounds(t, c.label, c.d)
	}
}

// TestDecomposeBEReportsTraffic checks the CONGEST counters flow from
// the peel through the Cost into the public Phases breakdown.
func TestDecomposeBEReportsTraffic(t *testing.T) {
	g := gen.ForestUnion(300, 4, 4)
	d, err := nwforest.DecomposeBE(g, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range d.Phases {
		if p.Name == "hpartition/peel" {
			found = true
			if p.Messages == 0 || p.Bits == 0 {
				t.Fatalf("peel phase reports no traffic: %+v", p)
			}
			// Every removal notification is a 1-bit message: Bits ==
			// Messages.
			if p.Bits != p.Messages {
				t.Fatalf("peel traffic %d msgs but %d bits; a notification is 1 bit", p.Messages, p.Bits)
			}
		}
	}
	if !found {
		t.Fatalf("no hpartition/peel phase in %+v", d.Phases)
	}
}
