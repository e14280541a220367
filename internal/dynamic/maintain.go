package dynamic

import (
	"context"
	"fmt"
	"math"
	"slices"

	"nwforest/internal/core"
	"nwforest/internal/dist"
	"nwforest/internal/forest"
	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// Config tunes a Maintainer. The zero value of every optional field
// selects a sensible default; Alpha and Eps parameterize the full
// rebuilds and should match the options the initial decomposition was
// computed with.
type Config struct {
	// Alpha is the arboricity bound full rebuilds target (required, >= 1).
	Alpha int
	// Eps is the rebuild excess parameter in (0, 1] (required).
	Eps float64
	// Seed drives the randomness of full rebuilds.
	Seed uint64
	// RepairBudget bounds the accumulated repair debt before the
	// Maintainer discards the patched coloring and recomputes a full
	// ForestDecomposition: every augmenting-path repair costs 1, every
	// emergency extra color costs ExtraColorDebt. <= 0 selects
	// DefaultRepairBudget.
	RepairBudget int
}

const (
	// DefaultRepairBudget is the repair debt that triggers a full rebuild
	// when Config.RepairBudget is unset.
	DefaultRepairBudget = 64
	// ExtraColorDebt is the repair debt charged when an insertion could
	// not be repaired within the current palette and opened a fresh
	// forest: spending a color is the strongest signal the patched
	// decomposition is drifting away from the (1+eps)alpha target.
	ExtraColorDebt = 8
)

// Stats counts what the Maintainer did, for the churn experiments and
// the service's observability.
type Stats struct {
	// Inserts and Deletes count the mutations applied.
	Inserts, Deletes int
	// FastRepairs counts insertions colored by the local probe (a color
	// free at an endpoint, or one whose tree does not connect the
	// endpoints) without touching the augmenting machinery.
	FastRepairs int
	// AugmentRepairs counts insertions that fell back to an augmenting
	// sequence (core.Searcher over the compacted graph).
	AugmentRepairs int
	// ExtraColors counts insertions that could not be repaired within the
	// current palette and opened a fresh forest.
	ExtraColors int
	// Rebuilds counts full ForestDecomposition recomputations triggered
	// by the repair budget.
	Rebuilds int
	// Compactions counts Freeze calls (from any trigger).
	Compactions int
}

// Maintainer keeps a forest decomposition valid under edge insertions
// and deletions by local repair, falling back to an augmenting sequence
// on conflict and to a full rebuild once the accumulated repair debt
// exceeds Config.RepairBudget. The maintained invariant, checked by
// Result against internal/verify, is that the colors of the live edges
// always form a partial forest decomposition with every live edge
// colored in [0, NumColors()).
//
// The coloring lives in one forest.State over the overlay's edge IDs:
// the base's edges, then each insertion, appended by AddEdge. A deleted
// edge stays in it, uncolored. So the repairs ask the State's exact
// degree and path queries. A compaction renumbers the edges and leaves
// the colors in a buffer until the next mutation builds a State over
// the new base from them; a Maintainer that only compacts, such as
// NewMaintainer followed by Result, builds none.
//
// All work is charged to an internal dist.Cost (phases
// "dynamic/repair-fast", "dynamic/repair-augment", "dynamic/delete",
// "dynamic/rebuild"), so the amortized cost of a churn sequence is
// reported the same way the one-shot pipeline reports its rounds.
//
// A Maintainer is deterministic: the same initial decomposition and the
// same mutation sequence produce the same colors. It is not safe for
// concurrent use.
type Maintainer struct {
	dg  *Graph
	cfg Config

	// st holds the coloring by overlay edge ID, or is nil after a
	// compaction, when frozen holds it by the new base's edge IDs
	// instead (see state). sc backs st's queries; state builds it with
	// the first State.
	st        *forest.State
	sc        *forest.Scratch
	frozen    []int32
	numColors int

	cost  dist.Cost
	stats Stats
	debt  int
}

// NewMaintainer starts maintaining the decomposition (colors, numColors)
// of g, which must be valid (len(colors) == g.M(), every color in
// [0, numColors)); pass the Colors/NumColors (or NumForests) of any
// decomposition the pipeline produced. The colors slice is copied.
func NewMaintainer(g *graph.Graph, colors []int32, numColors int, cfg Config) (*Maintainer, error) {
	if cfg.Alpha < 1 {
		return nil, fmt.Errorf("dynamic: Config.Alpha must be >= 1, got %d", cfg.Alpha)
	}
	if !(cfg.Eps > 0 && cfg.Eps <= 1) {
		return nil, fmt.Errorf("dynamic: Config.Eps must be in (0, 1], got %v", cfg.Eps)
	}
	if cfg.RepairBudget <= 0 {
		cfg.RepairBudget = DefaultRepairBudget
	}
	if len(colors) != g.M() {
		return nil, fmt.Errorf("dynamic: %d colors for %d edges", len(colors), g.M())
	}
	if err := verify.ForestDecomposition(g, colors, numColors); err != nil {
		return nil, fmt.Errorf("dynamic: initial decomposition invalid: %w", err)
	}
	return &Maintainer{
		dg:        New(g),
		cfg:       cfg,
		frozen:    slices.Clone(colors),
		numColors: numColors,
	}, nil
}

// state returns the State over the overlay's current edge IDs, building
// it from the colors a compaction left if no mutation has built it since.
func (m *Maintainer) state() *forest.State {
	if m.st == nil {
		m.st = forest.FromColors(m.dg.Base(), m.frozen)
		m.frozen = nil
		if m.sc == nil {
			m.sc = forest.NewScratch(m.dg.Base().N())
		}
	}
	return m.st
}

// Graph returns the maintained overlay. Callers may read it (to sample
// live edge IDs, say) but must mutate only through the Maintainer.
func (m *Maintainer) Graph() *Graph { return m.dg }

// NumColors returns the current palette size: every live edge is colored
// in [0, NumColors()).
func (m *Maintainer) NumColors() int { return m.numColors }

// Color returns the maintained color of live edge id.
func (m *Maintainer) Color(id int32) int32 {
	if m.st == nil {
		return m.frozen[id]
	}
	return m.st.Color(id)
}

// Stats returns the mutation/repair counters so far.
func (m *Maintainer) Stats() Stats { return m.stats }

// Cost returns the accumulated repair cost accounting. The breakdown's
// phases separate fast repairs, augmenting repairs, deletions and full
// rebuilds, so Rounds() is the amortized price of the churn so far.
func (m *Maintainer) Cost() *dist.Cost { return &m.cost }

// DeleteEdge removes a live edge. Removal can never invalidate a forest
// decomposition, so the repair is just an uncoloring; the freed slot
// makes later insertions cheaper. Deletions never compact the overlay —
// IDs held by the caller (a replayed mutation batch keyed by parent
// edge IDs, for instance) stay valid across any run of deletions.
func (m *Maintainer) DeleteEdge(id int32) error {
	if !m.dg.Live(id) {
		return fmt.Errorf("dynamic: edge %d is not a live edge", id)
	}
	m.state().SetColor(id, verify.Uncolored)
	if err := m.dg.DeleteEdge(id); err != nil {
		return err
	}
	m.stats.Deletes++
	m.cost.Charge(1, "dynamic/delete")
	return nil
}

// InsertEdge adds an edge and repairs the decomposition, cheapest
// strategy first: a color free at an endpoint, then a color whose tree
// does not already connect the endpoints (both answered by the held
// State), then an augmenting sequence over the compacted graph, and as
// a last resort a fresh color. It returns the edge's ID in the ID space
// as of return — an insertion may compact the overlay (see
// Graph.Freeze), which invalidates previously returned IDs.
func (m *Maintainer) InsertEdge(u, v int32) (int32, error) {
	id, err := m.dg.InsertEdge(u, v)
	if err != nil {
		return -1, err
	}
	m.stats.Inserts++
	st := m.state()
	st.AddEdge(m.dg.Edge(id)) // the overlay's next ID is the State's next ID

	if c := m.freeColor(u, v); c >= 0 {
		st.SetColor(id, c)
		m.stats.FastRepairs++
		m.cost.Charge(1, "dynamic/repair-fast")
		if m.dg.NeedsFreeze(DefaultFreezeFraction) {
			id = m.freeze()[id]
		}
		return id, nil
	}
	id = m.augmentRepair(id)
	if m.debt >= m.cfg.RepairBudget {
		m.rebuild()
		// rebuild compacted again without inserting/deleting, so the
		// previously remapped id survives unchanged.
	}
	return id, nil
}

// freeColor returns the first color the new edge u-v can take without
// closing a cycle, or -1. A color is free when one endpoint has no edge
// of it (a slot scan per color) or, failing that, when the endpoints lie
// in different trees of it. The State answers that exactly by walking
// both endpoints' root paths in the color's rooted forest, which costs
// their depths when the trees differ. Colors are probed in increasing
// order, keeping runs deterministic.
func (m *Maintainer) freeColor(u, v int32) int32 {
	for c := int32(0); c < int32(m.numColors); c++ {
		if m.st.DegreeInColor(u, c) == 0 || m.st.DegreeInColor(v, c) == 0 {
			return c
		}
	}
	for c := int32(0); c < int32(m.numColors); c++ {
		if !m.st.ConnectedInColorWith(m.sc, c, u, v, nil) {
			return c
		}
	}
	return -1
}

// augmentRepair handles an insertion every color conflicts with: the
// overlay is compacted so core.Searcher, which reads the CSR, can run on
// a State built over it, and an augmenting sequence re-shuffles nearby
// colors to free one for the new edge. If even that fails — the graph
// has genuinely outgrown the palette — the edge opens a fresh forest.
// Either way the repair debt grows; the budget check in InsertEdge
// converts persistent debt into a rebuild. It returns the new edge's ID
// after the compaction.
func (m *Maintainer) augmentRepair(id int32) int32 {
	id = m.freeze()[id]
	st := m.state()
	seq, stats := core.NewSearcher(st).FindAugmenting(core.FullPalettes(m.dg.M(), m.numColors), id, nil, nil)
	if seq == nil {
		m.numColors++
		st.SetColor(id, int32(m.numColors-1))
		m.stats.ExtraColors++
		m.debt += ExtraColorDebt
		m.cost.Charge(1, "dynamic/repair-augment")
		return id
	}
	core.Apply(st, seq)
	m.stats.AugmentRepairs++
	m.debt++
	// An augmenting repair is a genuinely local protocol: Theorem 3.2
	// bounds the sequence inside a small ball around the new edge, so
	// its LOCAL price is the containment radius (at least one round).
	rounds := stats.Radius
	if rounds < 1 {
		rounds = 1
	}
	m.cost.Charge(rounds, "dynamic/repair-augment")
	return id
}

// rebuild discards the patched coloring and recomputes a full
// ForestDecomposition of the live graph, resetting the repair debt.
// Churn may have raised the true arboricity above Config.Alpha, so the
// bound starts at max(Alpha, ceil(density)) and doubles while the
// decomposition keeps failing; if every attempt fails the current
// (valid) patched coloring is simply kept.
func (m *Maintainer) rebuild() {
	m.freeze()
	g := m.dg.Base()
	alpha := m.cfg.Alpha
	if d := int(math.Ceil(g.Density())); d > alpha {
		alpha = d
	}
	for attempt := 0; attempt < 4; attempt++ {
		res, err := core.ForestDecomposition(context.Background(), g, core.FDOptions{
			Alpha: alpha,
			Eps:   m.cfg.Eps,
			Seed:  m.cfg.Seed + uint64(m.stats.Rebuilds)*1000 + uint64(attempt),
		}, &m.cost)
		if err != nil {
			alpha *= 2
			continue
		}
		m.frozen = res.Colors
		m.numColors = res.NumColors
		break
	}
	m.stats.Rebuilds++
	m.debt = 0
	m.cost.Charge(0, "dynamic/rebuild") // register the phase even if all attempts failed
}

// Result compacts the overlay and returns the live graph with its
// maintained coloring, verified. The canonical compaction order means
// the returned graph is identical to re-ingesting the live edge list,
// so the colors line up with any independently derived copy of the same
// version (the service's mutation endpoint relies on this).
func (m *Maintainer) Result() (*graph.Graph, []int32, int, error) {
	m.freeze()
	g := m.dg.Base()
	colors := slices.Clone(m.frozen)
	if err := verify.ForestDecomposition(g, colors, m.numColors); err != nil {
		return nil, nil, 0, fmt.Errorf("dynamic: maintained decomposition invalid: %w", err)
	}
	return g, colors, m.numColors, nil
}

// freeze compacts the overlay and leaves the coloring, renumbered along
// with it, in m.frozen; it returns the Graph.Freeze remap.
func (m *Maintainer) freeze() []int32 {
	remap := m.dg.Freeze()
	colors := make([]int32, m.dg.M())
	for old, nw := range remap {
		if nw >= 0 {
			colors[nw] = m.Color(int32(old))
		}
	}
	m.st, m.frozen = nil, colors
	m.stats.Compactions++
	return remap
}
