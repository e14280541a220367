// Package algo is the algorithm registry behind the public nwforest.Run
// entry point: one descriptor per decomposition protocol of the paper,
// each owning its option normalization, validation, canonical cache-key
// contribution, capability flags, and a context-aware run function.
//
// Every consumer — the nwforest wrappers, internal/service's worker
// pool, cmd/nwdecomp, and internal/experiments — dispatches through this
// registry instead of maintaining its own per-algorithm switch, so
// adding an algorithm means registering one Descriptor, not touching
// four call sites.
//
// The cache-key contract: CacheKey(req) canonicalizes a Request so that
// two requests share a key exactly when they denote the same
// computation. Each descriptor's Normalize zeroes every parameter its
// algorithm ignores and materializes defaulted ones; the key is then a
// fixed rendering of the normalized request. The rendering is part of
// the service's persistent-cache compatibility surface and must not
// change shape (see TestCacheKeyGolden).
package algo

import (
	"context"
	"fmt"
	"strconv"

	"nwforest/internal/dist"
	"nwforest/internal/graph"
)

// Options configures the decomposition algorithms.
type Options struct {
	// Alpha is a globally known upper bound on the arboricity (required
	// by most algorithms; use the "arboricity" algorithm to compute it
	// exactly when unknown).
	Alpha int `json:"alpha"`
	// Eps is the excess parameter ε in (0, 1]; the decompositions target
	// (1+ε)·Alpha + O(1) forests.
	Eps float64 `json:"eps"`
	// Seed makes runs reproducible.
	Seed uint64 `json:"seed"`
	// ReduceDiameter additionally caps every monochromatic tree's
	// diameter at O(1/ε) (Corollary 2.5), costing O(εα) extra forests.
	ReduceDiameter bool `json:"reduceDiameter,omitempty"`
	// Sampled switches the CUT procedure to the conditioned-sampling rule
	// of Theorem 4.2(3)/(4), the regime for small α.
	Sampled bool `json:"sampled,omitempty"`
}

// Key returns a canonical string encoding of o: two Options values yield
// the same Key exactly when every field that influences algorithm output
// is equal. Since all randomness is deterministic given Seed, a Key
// together with a graph identity and an algorithm name fully determines a
// result, which makes Key suitable as a result-cache key (internal/service
// uses it that way). The float field is rendered with strconv's shortest
// round-trip formatting, so distinct bit patterns never collide.
func (o Options) Key() string {
	return "alpha=" + strconv.Itoa(o.Alpha) +
		",eps=" + strconv.FormatFloat(o.Eps, 'g', -1, 64) +
		",seed=" + strconv.FormatUint(o.Seed, 10) +
		",diam=" + strconv.FormatBool(o.ReduceDiameter) +
		",sampled=" + strconv.FormatBool(o.Sampled)
}

// Request selects and parameterizes one algorithm run: it unifies the
// former per-entry-point argument lists (Options, alphaStar, palette
// size) into the single value Run dispatches on.
type Request struct {
	// Algorithm names the registered algorithm; see Names.
	Algorithm string `json:"algorithm"`
	// Options configures the run (alpha, eps, seed, ...). Algorithms that
	// do not read a field ignore it; Normalize zeroes ignored fields.
	Options Options `json:"options"`
	// AlphaStar is the star-arboricity bound for "be" and "stars-list24".
	AlphaStar int `json:"alphaStar,omitempty"`
	// PaletteSize sizes the uniform palettes of the list variants
	// (0 = a default derived from Alpha/AlphaStar and Eps).
	PaletteSize int `json:"paletteSize,omitempty"`
	// Palettes optionally gives every edge an explicit color list for the
	// list variants, overriding PaletteSize. It is a library-side
	// parameter (the nwforest.DecomposeList family); it is not part of
	// the serialized request or of the cache key.
	Palettes [][]int32 `json:"-"`
	// Anytime asks an anytime-capable algorithm (Capabilities.Anytime) to
	// collect phase-boundary checkpoints and, should ctx expire mid-run,
	// return the best checkpoint as a partial Result (Result.Anytime set)
	// instead of an error. A run that finishes before its deadline
	// returns a Result bit-identical to the same run without Anytime, so
	// the flag is deliberately not part of the cache key: complete
	// results are interchangeable, and partial results must be cached
	// under a quality-qualified key by the caller (internal/service does).
	Anytime bool `json:"anytime,omitempty"`
}

// Result is the union of the algorithms' outputs: a decomposition, an
// orientation, or scalar outputs, plus the phase breakdown for scalar
// algorithms (Decomposition and Orientation carry their own).
type Result struct {
	// Decomposition is set by the decomposition algorithms.
	Decomposition *Decomposition `json:"decomposition,omitempty"`
	// Orientation is set by "orient".
	Orientation *Orientation `json:"orientation,omitempty"`
	// Alpha is set by "arboricity" (exact) and "estimate-alpha" (bound).
	Alpha int `json:"alpha,omitempty"`
	// Rounds is set by "estimate-alpha": the LOCAL rounds spent.
	Rounds int `json:"rounds,omitempty"`
	// Phases breaks a scalar algorithm's Rounds down by phase.
	Phases []dist.Phase `json:"phases,omitempty"`
	// Anytime is set only on partial results: an anytime run whose
	// deadline fired served its best phase-boundary checkpoint. Complete
	// results — even from anytime runs — leave it nil.
	Anytime *AnytimeInfo `json:"anytime,omitempty"`
}

// AnytimeInfo qualifies a partial anytime result with its quality bound.
type AnytimeInfo struct {
	// Partial is always true on served checkpoints; it exists so clients
	// reading serialized results can test one field.
	Partial bool `json:"partial"`
	// ColorsUsed is the quality bound: the distinct colors (forests) the
	// served checkpoint uses. For "orient" it counts the forests of the
	// underlying checkpoint; Orientation.MaxOutDegree carries the
	// orientation's own quality.
	ColorsUsed int `json:"colorsUsed"`
	// Target is the color budget a complete run aims for
	// (ceil((1+eps)*alpha)+1, or the palette size for "list"), so
	// ColorsUsed/Target reads as a quality ratio.
	Target int `json:"target"`
	// Checkpoints counts the phase-boundary snapshots offered before the
	// deadline fired.
	Checkpoints int `json:"checkpoints"`
	// Phase names the phase boundary the served checkpoint was taken at.
	Phase string `json:"phase"`
}

// Decomposition is a forest decomposition of a graph.
type Decomposition struct {
	// Colors[id] is the forest index of edge id.
	Colors []int32 `json:"colors"`
	// NumForests is the number of forests used.
	NumForests int `json:"numForests"`
	// Diameter is the maximum monochromatic tree diameter (-1 when not
	// defined, e.g. for pseudo-forests).
	Diameter int `json:"diameter"`
	// LeftoverEdges counts edges recolored with reserve colors (set by
	// "decompose"; 0 for algorithms that do not track a leftover).
	LeftoverEdges int `json:"leftoverEdges,omitempty"`
	// Rounds is the LOCAL round complexity of the run.
	Rounds int `json:"rounds"`
	// Phases breaks Rounds down by algorithm phase.
	Phases []dist.Phase `json:"phases,omitempty"`
}

// String summarizes a decomposition.
func (d *Decomposition) String() string {
	return fmt.Sprintf("forests=%d diameter=%d rounds=%d", d.NumForests, d.Diameter, d.Rounds)
}

// Orientation assigns every edge a direction.
type Orientation struct {
	// FromU[id] reports whether edge id points from its U endpoint to V.
	FromU []bool `json:"fromU"`
	// MaxOutDegree is the maximum out-degree realized.
	MaxOutDegree int `json:"maxOutDegree"`
	// Rounds is the LOCAL round complexity.
	Rounds int `json:"rounds"`
	// Phases breaks Rounds down by algorithm phase.
	Phases []dist.Phase `json:"phases,omitempty"`
}

// String summarizes an orientation.
func (o *Orientation) String() string {
	return fmt.Sprintf("maxOutDegree=%d rounds=%d", o.MaxOutDegree, o.Rounds)
}

// Capabilities describes what a registered algorithm needs and produces,
// for clients discovering the surface (GET /algorithms) and for
// capability-gated features like the service's incremental mode.
type Capabilities struct {
	// NeedsAlpha: Options.Alpha >= 1 is required.
	NeedsAlpha bool `json:"needsAlpha"`
	// NeedsEps: Options.Eps in (0, MaxEps] is required.
	NeedsEps bool `json:"needsEps"`
	// UsesSeed: the run is randomized; Options.Seed selects the outcome.
	UsesSeed bool `json:"usesSeed"`
	// UsesAlphaStar: the run reads Request.AlphaStar.
	UsesAlphaStar bool `json:"usesAlphaStar"`
	// UsesPalettes: a list variant; the run reads Request.PaletteSize
	// (or explicit Request.Palettes).
	UsesPalettes bool `json:"usesPalettes"`
	// Incremental: results can be maintained by warm-start repair
	// (the service's mode=incremental).
	Incremental bool `json:"incremental"`
	// Anytime: the run is phase-structured with servable checkpoints;
	// Request.Anytime turns a mid-run deadline into a partial Result.
	Anytime bool `json:"anytime"`
	// Output names the result shape: "decomposition", "orientation" or
	// "scalar".
	Output string `json:"output"`
}

// Output kinds.
const (
	OutputDecomposition = "decomposition"
	OutputOrientation   = "orientation"
	OutputScalar        = "scalar"
)

// Descriptor is one registered algorithm.
type Descriptor struct {
	// Name is the registry key, e.g. "decompose".
	Name string
	// Summary is a one-line human description.
	Summary string
	// Required lists the request fields a valid request must set, in
	// JSON-path spelling (e.g. "options.alpha"); alternatives are joined
	// with "|".
	Required []string
	// Caps are the capability flags.
	Caps Capabilities
	// Normalize zeroes every parameter the algorithm ignores and
	// materializes defaulted ones, so equal computations get equal
	// cache keys. It must mirror exactly what Run reads.
	Normalize func(Request) Request
	// Validate rejects parameter combinations the algorithm would reject
	// obscurely — or panic on — at run time (generic bounds are checked
	// by ValidateRequest before this runs; may be nil).
	Validate func(Request) error
	// Run executes the algorithm on g, charging rounds to cost. It
	// receives the normalized request and must observe ctx.
	Run func(ctx context.Context, g *graph.Graph, req Request, cost *dist.Cost) (*Result, error)
}

var (
	registry []*Descriptor
	byName   = make(map[string]*Descriptor)
	names    []string
)

// Register adds a descriptor to the registry; names must be unique and
// every hook non-nil (Validate excepted). It is called from init and
// panics on a misconfigured descriptor.
func Register(d Descriptor) {
	if d.Name == "" || d.Normalize == nil || d.Run == nil {
		panic(fmt.Sprintf("algo: invalid descriptor %+v", d))
	}
	if _, dup := byName[d.Name]; dup {
		panic("algo: duplicate algorithm " + d.Name)
	}
	dp := &d
	registry = append(registry, dp)
	byName[d.Name] = dp
	names = append(names, d.Name)
}

// Lookup returns the descriptor registered under name.
func Lookup(name string) (*Descriptor, bool) {
	d, ok := byName[name]
	return d, ok
}

// Names lists the registered algorithm names in registration order. The
// returned slice is shared; callers must not mutate it.
func Names() []string { return names }

// All returns the descriptors in registration order. The returned slice
// is shared; callers must not mutate it.
func All() []*Descriptor { return registry }

// Bounds on request parameters. Derived quantities allocate
// proportionally (uniform palettes allocate PaletteSize colors; palette
// sizes scale with (1+Eps)*Alpha), so an unauthenticated service request
// must not be able to commission a giant allocation through them. The
// caps are orders of magnitude above any meaningful value: arboricity
// never exceeds n, and n is itself capped at 2^24 by service ingestion.
const (
	MaxAlpha       = 1 << 20
	MaxPaletteSize = 1 << 24
	MaxEps         = 16.0
)

// ValidateRequest checks req against the registry: the algorithm must
// exist, the generic parameter bounds must hold, the capabilities'
// required parameters must be present, and the descriptor's own Validate
// (if any) must accept it. Algorithms reject out-of-range parameters
// here, at request time, instead of obscurely mid-run.
func ValidateRequest(req Request) error {
	d, ok := Lookup(req.Algorithm)
	if !ok {
		return fmt.Errorf("algo: unknown algorithm %q (want one of %v)", req.Algorithm, Names())
	}
	if req.AlphaStar < 0 || req.AlphaStar > MaxAlpha {
		return fmt.Errorf("algo: alphaStar must be in [0, %d], got %d", MaxAlpha, req.AlphaStar)
	}
	if req.PaletteSize < 0 || req.PaletteSize > MaxPaletteSize {
		return fmt.Errorf("algo: paletteSize must be in [0, %d], got %d", MaxPaletteSize, req.PaletteSize)
	}
	if req.Options.Alpha < 0 || req.Options.Alpha > MaxAlpha {
		return fmt.Errorf("algo: options.alpha must be in [0, %d], got %d", MaxAlpha, req.Options.Alpha)
	}
	if d.Caps.NeedsAlpha && req.Options.Alpha < 1 {
		return fmt.Errorf("algo: %s requires options.alpha >= 1", req.Algorithm)
	}
	if d.Caps.NeedsEps && !(req.Options.Eps > 0 && req.Options.Eps <= MaxEps) { // the negation also rejects NaN
		return fmt.Errorf("algo: %s requires options.eps in (0, %g]", req.Algorithm, MaxEps)
	}
	if req.Anytime && !d.Caps.Anytime {
		return fmt.Errorf("algo: %s does not support anytime mode", req.Algorithm)
	}
	if d.Validate != nil {
		return d.Validate(req)
	}
	return nil
}

// CacheKey canonicalizes the algorithm+parameter portion of a result
// cache key: the descriptor's Normalize zeroes ignored parameters and
// materializes defaults, so parameters the algorithm ignores, and values
// that merely spell out a default, never split the cache. Callers
// prepend a graph identity (the service prepends its content-addressed
// graph ID and appends its mode tag). The rendering is byte-stable; see
// the package comment.
func CacheKey(req Request) string {
	if d, ok := Lookup(req.Algorithm); ok {
		req = d.Normalize(req)
	}
	return req.Algorithm + "|" + req.Options.Key() +
		",alphaStar=" + strconv.Itoa(req.AlphaStar) +
		",palette=" + strconv.Itoa(req.PaletteSize)
}

// Run validates req, normalizes it and executes it on g: the single
// dispatch point behind nwforest.Run, the service worker pool, the CLI
// and the experiment harness. Cancellation or expiry of ctx interrupts
// the run mid-phase with ctx.Err().
func Run(ctx context.Context, g *graph.Graph, req Request) (*Result, error) {
	d, ok := Lookup(req.Algorithm)
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q (want one of %v)", req.Algorithm, Names())
	}
	if err := ValidateRequest(req); err != nil {
		return nil, err
	}
	var cost dist.Cost
	// A progress hook riding on ctx (dist.WithProgress — the service's
	// per-job SSE stream) observes this run's cost as it accrues; a span
	// observer (dist.WithSpans — the service's per-job trace recorder)
	// additionally sees traffic charges and sampled simulated rounds.
	progress, spans := dist.ObserversFromContext(ctx)
	cost.SetProgress(progress)
	cost.SetSpans(spans)
	return d.Run(ctx, g, d.Normalize(req), &cost)
}
