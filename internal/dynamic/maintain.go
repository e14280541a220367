package dynamic

import (
	"context"
	"fmt"
	"math"

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
	// FreezeFraction is the overlay drift (see Graph.DeltaFraction)
	// beyond which insertions compact the graph back to CSR. <= 0
	// selects DefaultFreezeFraction.
	FreezeFraction float64
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
// and deletions by local repair, falling back to the epoch-stamped
// augmenting machinery on conflict and to a full rebuild once the
// accumulated repair debt exceeds Config.RepairBudget. The maintained
// invariant, checked by Result against internal/verify, is that the
// colors of the live edges always form a partial forest decomposition
// with every live edge colored in [0, NumColors()).
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

	colors    []int32 // by overlay edge ID; verify.Uncolored when dead
	numColors int
	// adj[v] maps a color to the live edge IDs of that color at v — the
	// same shape as forest.State's incidence index, but over the mutable
	// ID space.
	adj []map[int32][]int32

	// Epoch-stamped scratch for the monochromatic connectivity probes,
	// as in forest.State: bumping epoch invalidates all marks in O(1).
	mark  []uint32
	queue []int32
	epoch uint32

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
	if cfg.FreezeFraction <= 0 {
		cfg.FreezeFraction = DefaultFreezeFraction
	}
	if len(colors) != g.M() {
		return nil, fmt.Errorf("dynamic: %d colors for %d edges", len(colors), g.M())
	}
	if err := verify.ForestDecomposition(g, colors, numColors); err != nil {
		return nil, fmt.Errorf("dynamic: initial decomposition invalid: %w", err)
	}
	m := &Maintainer{
		dg:        New(g),
		cfg:       cfg,
		colors:    append([]int32(nil), colors...),
		numColors: numColors,
		mark:      make([]uint32, g.N()),
	}
	m.rebuildIndex()
	return m, nil
}

// Graph returns the maintained overlay. Callers may read it (to sample
// live edge IDs, say) but must mutate only through the Maintainer.
func (m *Maintainer) Graph() *Graph { return m.dg }

// NumColors returns the current palette size: every live edge is colored
// in [0, NumColors()).
func (m *Maintainer) NumColors() int { return m.numColors }

// Color returns the maintained color of live edge id.
func (m *Maintainer) Color(id int32) int32 { return m.colors[id] }

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
	m.unsetColor(id)
	if err := m.dg.DeleteEdge(id); err != nil {
		return err
	}
	m.stats.Deletes++
	m.cost.Charge(1, "dynamic/delete")
	return nil
}

// InsertEdge adds an edge and repairs the decomposition, cheapest
// strategy first: a color free at an endpoint, then a color whose tree
// does not already connect the endpoints, then an augmenting sequence
// over the compacted graph, and as a last resort a fresh color. It
// returns the edge's ID in the ID space as of return — an insertion may
// compact the overlay (see Graph.Freeze), which invalidates previously
// returned IDs.
func (m *Maintainer) InsertEdge(u, v int32) (int32, error) {
	id, err := m.dg.InsertEdge(u, v)
	if err != nil {
		return -1, err
	}
	m.stats.Inserts++
	m.colors = append(m.colors, verify.Uncolored)

	if c := m.freeColor(u, v); c >= 0 {
		m.setColor(id, c)
		m.stats.FastRepairs++
		m.cost.Charge(1, "dynamic/repair-fast")
		if m.dg.NeedsFreeze(m.cfg.FreezeFraction) {
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

// freeColor returns a color the new edge u-v can take without closing a
// cycle, or -1. A color is free when one endpoint is isolated in it
// (O(1) per color) or, failing that, when the endpoints provably lie in
// different trees of it (one monochromatic BFS per color). Each BFS is
// budgeted at ~4x the average tree size: proving disconnection requires
// exhausting u's whole tree, so without a cap one insertion could cost
// O(colors x N) on adversarially long trees; a probe that exhausts its
// budget conservatively treats the color as unusable, which keeps the
// total fast-path work per insertion at O(M + colors) and stays correct
// (an unusable verdict only sends the edge down the augmenting path).
// Colors are probed in increasing order, keeping runs deterministic.
func (m *Maintainer) freeColor(u, v int32) int32 {
	for c := int32(0); c < int32(m.numColors); c++ {
		if len(m.adj[u][c]) == 0 || len(m.adj[v][c]) == 0 {
			return c
		}
	}
	budget := 64
	if m.numColors > 0 {
		budget += 4 * m.dg.M() / m.numColors
	}
	for c := int32(0); c < int32(m.numColors); c++ {
		if !m.connected(c, u, v, budget) {
			return c
		}
	}
	return -1
}

// augmentRepair handles an insertion every color conflicts with: the
// overlay is compacted so the existing machinery (forest.State +
// core.Searcher) can run over a plain CSR graph, and an augmenting
// sequence re-shuffles nearby colors to free one for the new edge. If
// even that fails — the graph has genuinely outgrown the palette — the
// edge opens a fresh forest. Either way the repair debt grows; the
// budget check in InsertEdge converts persistent debt into a rebuild.
// It returns the new edge's ID after the compaction.
func (m *Maintainer) augmentRepair(id int32) int32 {
	id = m.freeze()[id]
	g := m.dg.Base()
	st := forest.FromColors(g, m.colors)
	seq, stats := core.NewSearcher(st).FindAugmenting(core.FullPalettes(g.M(), m.numColors), id, nil, nil, 0)
	if seq == nil {
		m.numColors++
		m.setColor(id, int32(m.numColors-1))
		m.stats.ExtraColors++
		m.debt += ExtraColorDebt
		m.cost.Charge(1, "dynamic/repair-augment")
		return id
	}
	for _, step := range seq {
		m.setColor(step.Edge, step.Color)
	}
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
		m.colors = res.Colors
		m.numColors = res.NumColors
		m.rebuildIndex()
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
	colors := append([]int32(nil), m.colors...)
	if err := verify.ForestDecomposition(g, colors, m.numColors); err != nil {
		return nil, nil, 0, fmt.Errorf("dynamic: maintained decomposition invalid: %w", err)
	}
	return g, colors, m.numColors, nil
}

// freeze compacts the overlay and renumbers the maintained state along
// with it; it returns the Graph.Freeze remap.
func (m *Maintainer) freeze() []int32 {
	remap := m.dg.Freeze()
	newColors := make([]int32, m.dg.M())
	for old, nw := range remap {
		if nw >= 0 {
			newColors[nw] = m.colors[old]
		}
	}
	m.colors = newColors
	m.rebuildIndex()
	m.stats.Compactions++
	return remap
}

// rebuildIndex recomputes the per-vertex per-color incidence from
// m.colors (which must be aligned with the overlay's current ID space).
func (m *Maintainer) rebuildIndex() {
	if m.adj == nil {
		m.adj = make([]map[int32][]int32, m.dg.N())
	}
	for v := range m.adj {
		m.adj[v] = make(map[int32][]int32)
	}
	for id, c := range m.colors {
		if c != verify.Uncolored && m.dg.Live(int32(id)) {
			e := m.dg.Edge(int32(id))
			m.adj[e.U][c] = append(m.adj[e.U][c], int32(id))
			m.adj[e.V][c] = append(m.adj[e.V][c], int32(id))
		}
	}
}

func (m *Maintainer) setColor(id, c int32) {
	if m.colors[id] != verify.Uncolored {
		m.unsetColor(id)
	}
	m.colors[id] = c
	e := m.dg.Edge(id)
	m.adj[e.U][c] = append(m.adj[e.U][c], id)
	m.adj[e.V][c] = append(m.adj[e.V][c], id)
}

func (m *Maintainer) unsetColor(id int32) {
	c := m.colors[id]
	if c == verify.Uncolored {
		return
	}
	m.colors[id] = verify.Uncolored
	e := m.dg.Edge(id)
	for _, v := range [2]int32{e.U, e.V} {
		lst := m.adj[v][c]
		for i, x := range lst {
			if x == id {
				lst[i] = lst[len(lst)-1]
				lst = lst[:len(lst)-1]
				break
			}
		}
		if len(lst) == 0 {
			delete(m.adj[v], c)
		} else {
			m.adj[v][c] = lst
		}
	}
}

// connected reports whether u and v lie in the same tree of color c, by
// BFS over the color's incidence lists on epoch-stamped scratch. The
// search gives up after visiting budget vertices and then answers true
// (pessimistically connected): false claims must be proofs, true only
// costs the caller a cheaper color or the augmenting fallback.
func (m *Maintainer) connected(c, u, v int32, budget int) bool {
	ep := m.nextEpoch()
	m.mark[u] = ep
	m.queue = append(m.queue[:0], u)
	for head := 0; head < len(m.queue); head++ {
		if head >= budget {
			return true
		}
		x := m.queue[head]
		for _, id := range m.adj[x][c] {
			y := m.dg.Edge(id).Other(x)
			if m.mark[y] == ep {
				continue
			}
			if y == v {
				return true
			}
			m.mark[y] = ep
			m.queue = append(m.queue, y)
		}
	}
	return false
}

func (m *Maintainer) nextEpoch() uint32 {
	m.epoch++
	if m.epoch == 0 {
		clear(m.mark)
		m.epoch = 1
	}
	return m.epoch
}
