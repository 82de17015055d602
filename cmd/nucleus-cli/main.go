// Command nucleus-cli decomposes a graph from an edge-list file and prints
// the κ histogram and, optionally, the nucleus hierarchy. It also inspects
// nucleusd's durable snapshot files and follows the anytime progress of
// nucleusd jobs over SSE.
//
//	nucleus-cli -graph g.txt -dec truss -alg and -threads 4
//	nucleus-cli -graph g.txt -dec core -hierarchy -min-cells 10
//	nucleus-cli -graph g.txt -r 2 -s 4            # generic (r,s) via hypergraph
//	nucleus-cli snapshot inspect <data-dir>/graphs/<name>/snapshot.nsnap
//	nucleus-cli watch -server http://localhost:8080 -graph web -dec truss
//	nucleus-cli watch -server http://localhost:8080 -job j42
//	nucleus-cli repl status -server http://replica:8081
//	nucleus-cli repl promote -server http://replica:8081 -generation 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	root "nucleus"

	"nucleus/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) > 0 && args[0] == "snapshot" {
		return runSnapshot(args[1:], w)
	}
	if len(args) > 0 && args[0] == "watch" {
		return runWatch(args[1:], w)
	}
	if len(args) > 0 && args[0] == "repl" {
		return runRepl(args[1:], w)
	}
	fs := flag.NewFlagSet("nucleus-cli", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "edge-list file (required)")
		decName   = fs.String("dec", "core", "decomposition: core, truss, 34")
		algName   = fs.String("alg", "and", "algorithm: peel, snd, and")
		threads   = fs.Int("threads", 1, "worker threads for local algorithms")
		maxSweeps = fs.Int("max-sweeps", 0, "iteration budget (0 = to convergence)")
		hier      = fs.Bool("hierarchy", false, "print the nucleus hierarchy")
		minCells  = fs.Int("min-cells", 1, "hide hierarchy nodes smaller than this")
		dot       = fs.Bool("dot", false, "print the hierarchy as GraphViz DOT instead of text")
		rFlag     = fs.Int("r", 0, "generic r (with -s; overrides -dec)")
		sFlag     = fs.Int("s", 0, "generic s (with -r; overrides -dec)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	generic := *rFlag != 0 || *sFlag != 0
	if generic && (*rFlag < 1 || *rFlag >= *sFlag) {
		return fmt.Errorf("generic (r,s) needs both -r and -s with 1 <= r < s, got -r %d -s %d", *rFlag, *sFlag)
	}
	g, err := root.LoadEdgeList(*graphPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded graph: n=%d m=%d\n", g.N(), g.M())

	var alg root.Algorithm
	switch *algName {
	case "peel":
		alg = root.Peel
	case "snd":
		alg = root.SND
	case "and":
		alg = root.AND
	default:
		return fmt.Errorf("unknown algorithm %q", *algName)
	}
	opts := root.Options{Algorithm: alg, Threads: *threads, MaxSweeps: *maxSweeps}

	start := time.Now()
	var res *root.Result
	var dec root.Decomposition
	if generic {
		res = root.DecomposeRS(g, *rFlag, *sFlag, opts)
		fmt.Fprintf(w, "generic (%d,%d) decomposition", *rFlag, *sFlag)
	} else {
		switch *decName {
		case "core":
			dec = root.KCore
		case "truss":
			dec = root.KTruss
		case "34":
			dec = root.Nucleus34
		default:
			return fmt.Errorf("unknown decomposition %q", *decName)
		}
		res = root.Decompose(g, dec, opts)
		fmt.Fprintf(w, "%v decomposition", dec)
	}
	fmt.Fprintf(w, " via %v: %d cells, max kappa %d, %v\n",
		alg, len(res.Kappa), res.MaxKappa, time.Since(start).Round(time.Millisecond))
	if !res.Converged {
		fmt.Fprintf(w, "stopped after %d sweeps (approximation: tau >= kappa)\n", res.Sweeps)
	} else if alg != root.Peel {
		fmt.Fprintf(w, "converged in %d iterations (%d sweeps)\n", res.Iterations, res.Sweeps)
	}

	fmt.Fprintln(w, "kappa histogram (k: cells):")
	for k, c := range res.Histogram() {
		if c > 0 {
			fmt.Fprintf(w, "  %4d: %d\n", k, c)
		}
	}

	if *hier || *dot {
		if generic {
			return fmt.Errorf("hierarchy printing is not supported for generic (r,s)")
		}
		f := root.BuildHierarchy(g, dec, res.Kappa)
		if *dot {
			return f.WriteDOT(w, g, *minCells)
		}
		fmt.Fprintf(w, "hierarchy: %d nuclei\n", f.NumNodes())
		f.Print(w, g, *minCells)
	}
	return nil
}

// runSnapshot handles the `snapshot` subcommand family. `inspect` fully
// decodes each file — so a clean report also certifies the checksum — and
// prints the header, metadata and κ summary.
func runSnapshot(args []string, w io.Writer) error {
	const usage = "usage: nucleus-cli snapshot inspect <snapshot.nsnap>..."
	if len(args) == 0 || args[0] != "inspect" {
		return fmt.Errorf(usage)
	}
	files := args[1:]
	if len(files) == 0 {
		return fmt.Errorf(usage)
	}
	for _, path := range files {
		info, err := store.InspectSnapshot(path)
		if err != nil {
			return fmt.Errorf("inspecting %s: %w", path, err)
		}
		fmt.Fprintf(w, "%s: format v%d, %d bytes, checksum OK\n", info.Path, info.FormatVersion, info.FileBytes)
		fmt.Fprintf(w, "  graph:    n=%d m=%d (%.2f bytes/edge encoded)\n", info.N, info.M, bytesPerEdge(info.FileBytes, info.M))
		fmt.Fprintf(w, "  version:  %d (%d mutation batches)\n", info.Version, info.Mutations)
		fmt.Fprintf(w, "  source:   %s\n", info.Source)
		fmt.Fprintf(w, "  created:  %s\n", info.CreatedAt.UTC().Format(time.RFC3339Nano))
		if info.HasKappa {
			fmt.Fprintf(w, "  kappa:    present (max core number %d; recovery warm-starts)\n", info.MaxKappa)
		} else {
			fmt.Fprintf(w, "  kappa:    absent (recovery decomposes on demand)\n")
		}
	}
	return nil
}

func bytesPerEdge(fileBytes int64, m int64) float64 {
	if m == 0 {
		return 0
	}
	return float64(fileBytes) / float64(m)
}
