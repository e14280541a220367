package experiments

import (
	"fmt"

	"nwforest/internal/algo"
	"nwforest/internal/dist"
	"nwforest/internal/gen"
	"nwforest/internal/verify"
)

// DecomposeE2E is the end-to-end serving hot path as a tracked
// experiment: one full (1+eps)a forest decomposition of a multigraph
// forest union — dispatched through the algorithm registry, the same
// path an nwserve worker executes per job — with the LOCAL rounds and
// CONGEST traffic of the simulated protocol reported as metrics. It
// anchors the BENCH_*.json trajectory: rounds and msgs are
// deterministic for a given seed, so any drift is a real behavior
// change, not noise.
func DecomposeE2E(cfg Config) (*Table, error) {
	n := 2000 * cfg.scale()
	alpha := 4
	g := gen.ForestUnion(n, alpha, cfg.Seed)
	// The sampled CUT rule is the small-alpha serving regime and the one
	// that runs the H-partition peel (the 3-alpha orientation), so the
	// msgs/bits metrics track the peel's simulated-network traffic.
	res, err := runAlgo(g, algo.Request{Algorithm: "decompose", Options: algo.Options{
		Alpha:   alpha,
		Eps:     0.5,
		Seed:    cfg.Seed,
		Sampled: true,
	}})
	if err != nil {
		return nil, err
	}
	d := res.Decomposition
	if err := verify.ForestDecomposition(g, d.Colors, d.NumForests); err != nil {
		return nil, fmt.Errorf("decompose experiment produced invalid result: %w", err)
	}
	msgs, bits := trafficOf(d.Phases)
	t := &Table{
		ID:     "E2E",
		Title:  "end-to-end (1+eps)a forest decomposition (serving hot path)",
		Header: []string{"n", "m", "alpha", "forests", "rounds", "msgs", "leftover"},
		Rows: [][]string{{
			itoa(g.N()), itoa(g.M()), itoa(alpha), itoa(d.NumForests),
			itoa(d.Rounds), fmt.Sprintf("%d", msgs), itoa(d.LeftoverEdges),
		}},
		Metrics: map[string]float64{
			"forests":  float64(d.NumForests),
			"rounds":   float64(d.Rounds),
			"msgs":     float64(msgs),
			"bits":     float64(bits),
			"leftover": float64(d.LeftoverEdges),
		},
	}
	return t, nil
}

// trafficOf sums the CONGEST counters over a phase breakdown.
func trafficOf(phases []dist.Phase) (msgs, bits int64) {
	for _, p := range phases {
		msgs += p.Messages
		bits += p.Bits
	}
	return msgs, bits
}
