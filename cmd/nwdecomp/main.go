// Command nwdecomp reads a graph (plain edge-list, DIMACS or METIS
// format, auto-detected; see internal/graph), runs any registered
// algorithm on it (forest decomposition by default), verifies the
// result, and writes one line per edge to stdout (the forest color, or
// the direction bit for -algo orient).
//
// Usage:
//
//	nwdecomp -list-algos
//	nwdecomp -in graph.txt -eps 0.5 [-algo decompose] [-alpha 0]
//	         [-alpha-star 0] [-palette 0] [-diam] [-sampled] [-seed 1]
//
// The algorithm set is the registry behind nwforest.Run — the same
// surface nwserve exposes over HTTP — so every algorithm the server can
// run, the CLI can run. With -alpha 0 the exact arboricity is computed
// first (centralized). Ctrl-C cancels a long run mid-phase: the context
// is threaded down to the peel's round loop and Algorithm 2's clusters.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"nwforest"
	"nwforest/internal/algo"
	"nwforest/internal/dist"
	"nwforest/internal/graph"
)

func main() {
	in := flag.String("in", "", "input graph file ('-' = stdin)")
	algoName := flag.String("algo", "decompose", "algorithm to run (see -list-algos)")
	listAlgos := flag.Bool("list-algos", false, "list registered algorithms and exit")
	alpha := flag.Int("alpha", 0, "arboricity bound (0 = compute exactly when required)")
	alphaStar := flag.Int("alpha-star", 0, "pseudo-arboricity bound for be/stars-list24 (0 = use -alpha)")
	palette := flag.Int("palette", 0, "palette size for the list variants (0 = derived default)")
	eps := flag.Float64("eps", 0.5, "excess parameter epsilon")
	seed := flag.Uint64("seed", 1, "random seed")
	stars := flag.Bool("stars", false, "shorthand for -algo stars (kept for compatibility)")
	diam := flag.Bool("diam", false, "cap tree diameters at O(1/eps)")
	sampled := flag.Bool("sampled", false, "use the conditioned-sampling CUT rule (small-alpha regime)")
	quiet := flag.Bool("q", false, "suppress the per-edge output")
	flag.Parse()

	if *listAlgos {
		for _, d := range algo.All() {
			fmt.Printf("%-15s %s\n", d.Name, d.Summary)
		}
		return
	}
	name := *algoName
	if *stars {
		if name != "decompose" && name != "stars" {
			fmt.Fprintf(os.Stderr, "nwdecomp: -stars conflicts with -algo %s\n", name)
			os.Exit(2)
		}
		name = "stars"
	}
	desc, ok := algo.Lookup(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "nwdecomp: unknown algorithm %q (use -list-algos)\n", name)
		os.Exit(2)
	}

	if *in == "" {
		fmt.Fprintln(os.Stderr, "nwdecomp: -in is required")
		os.Exit(2)
	}
	f := os.Stdin
	if *in != "-" {
		var err error
		f, err = os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	g, _, err := graph.DecodeAuto(f)
	if err != nil {
		fatal(err)
	}

	a := *alpha
	if a == 0 && desc.Caps.NeedsAlpha {
		a, _ = nwforest.Arboricity(g)
		fmt.Fprintf(os.Stderr, "nwdecomp: exact arboricity = %d\n", a)
		if a == 0 {
			fmt.Fprintln(os.Stderr, "nwdecomp: graph has no edges")
			return
		}
	}
	aStar := *alphaStar
	if aStar == 0 && desc.Caps.UsesAlphaStar {
		aStar = a
		if aStar == 0 {
			aStar, _ = nwforest.Arboricity(g)
			fmt.Fprintf(os.Stderr, "nwdecomp: exact arboricity = %d\n", aStar)
			if aStar == 0 {
				fmt.Fprintln(os.Stderr, "nwdecomp: graph has no edges")
				return
			}
		}
	}

	// Ctrl-C cancels the run mid-phase instead of killing the process
	// abruptly; the registry threads ctx down to the algorithms' loops.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, err := nwforest.Run(ctx, g, nwforest.Request{
		Algorithm: name,
		Options: nwforest.Options{
			Alpha:          a,
			Eps:            *eps,
			Seed:           *seed,
			ReduceDiameter: *diam,
			Sampled:        *sampled,
		},
		AlphaStar:   aStar,
		PaletteSize: *palette,
	})
	if err != nil {
		fatal(err)
	}

	// The bound actually driving the run; parameterless algorithms
	// (arboricity, estimate-alpha) have none to report.
	bound := ""
	switch {
	case desc.Caps.UsesAlphaStar:
		bound = fmt.Sprintf(" alpha*=%d", aStar)
	case desc.Caps.NeedsAlpha:
		bound = fmt.Sprintf(" alpha=%d", a)
	}
	switch {
	case res.Orientation != nil:
		o := res.Orientation
		fmt.Fprintf(os.Stderr, "nwdecomp: n=%d m=%d%s -> %s\n", g.N(), g.M(), bound, o)
		printPhases(o.Phases)
		if !*quiet {
			for _, fromU := range o.FromU {
				if fromU {
					fmt.Println(1)
				} else {
					fmt.Println(0)
				}
			}
		}
	case res.Decomposition != nil:
		d := res.Decomposition
		fmt.Fprintf(os.Stderr, "nwdecomp: n=%d m=%d%s -> %s\n", g.N(), g.M(), bound, d)
		printPhases(d.Phases)
		if res.Alpha != 0 { // arboricity: scalar + witness
			fmt.Fprintf(os.Stderr, "nwdecomp: exact arboricity = %d\n", res.Alpha)
		}
		if !*quiet {
			for _, c := range d.Colors {
				fmt.Println(c)
			}
		}
	default: // scalar-only (estimate-alpha)
		fmt.Fprintf(os.Stderr, "nwdecomp: n=%d m=%d -> alpha<=%d rounds=%d\n", g.N(), g.M(), res.Alpha, res.Rounds)
		printPhases(res.Phases)
		if !*quiet {
			fmt.Println(res.Alpha)
		}
	}
}

func printPhases(phases []dist.Phase) {
	for _, p := range phases {
		if p.Messages > 0 {
			fmt.Fprintf(os.Stderr, "  %-28s %6d rounds %9d msgs %11d bits\n", p.Name, p.Rounds, p.Messages, p.Bits)
		} else {
			fmt.Fprintf(os.Stderr, "  %-28s %6d rounds\n", p.Name, p.Rounds)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nwdecomp:", err)
	os.Exit(1)
}
