// Command spatl-bench regenerates the SPATL paper's tables and figures.
// Every experiment in DESIGN.md's index is addressable by id:
//
//	spatl-bench -exp table1 -scale small
//	spatl-bench -exp all -scale tiny -csv out/
//	spatl-bench -list
//
// Scenario matrices sweep algorithm x participation x skew x transport
// cross-products from one declarative JSON spec (see EXPERIMENTS.md),
// emitting one zero-time journal per cell plus a comparison report:
//
//	spatl-bench -matrix quick -out out/quick
//	spatl-bench -matrix path/to/matrix.json -dry
//	spatl-bench -matrix list
//
// Scales: tiny (seconds, smoke), small (laptop reproduction, default),
// paper (the paper's client counts and model widths; many hours in pure
// Go).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spatl/internal/experiments"
	"spatl/internal/telemetry"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (see -list) or 'all'")
		scale     = flag.String("scale", "small", "scale preset: tiny | small | paper")
		csvDir    = flag.String("csv", "", "directory for CSV series export (optional)")
		seed      = flag.Int64("seed", 1, "experiment seed")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		archs     = flag.String("archs", "", "comma-separated architecture override (e.g. resnet20,vgg11)")
		clients   = flag.String("clients", "", "comma-separated clients:ratio override (e.g. 10:1.0,30:0.4)")
		rounds    = flag.Int("rounds", 0, "override the scale's round caps (both convergence and curve rounds)")
		perClient = flag.Int("perclient", 0, "override the scale's examples per client")
		journal   = flag.String("journal", "", "append the JSONL round journal of every experiment run to this file")

		matrixF   = flag.String("matrix", "", "run a scenario matrix: preset name, JSON file (matrix or single spec), or 'list'")
		matrixOut = flag.String("out", "matrix-out", "with -matrix: directory for per-cell journals and the comparison report")
		workers   = flag.Int("workers", 0, "with -matrix: concurrent cells (default min(4, GOMAXPROCS))")
		force     = flag.Bool("force", false, "with -matrix: run past the matrix cell cap")
		dry       = flag.Bool("dry", false, "with -matrix: print the expanded cells without running them")
		cache     = flag.Bool("cache", false, "with -matrix: reuse journals in -out for cells whose spec is unchanged (hash sidecar), re-running only changed cells")
	)
	flag.Parse()

	if *matrixF != "" {
		if *list {
			*matrixF = "list"
		}
		if err := runMatrixCmd(*matrixF, *matrixOut, *workers, *force, *dry, *cache); err != nil {
			fmt.Fprintln(os.Stderr, "spatl-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *journal != "" {
		jf, err := os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spatl-bench:", err)
			os.Exit(1)
		}
		defer jf.Close()
		tel := telemetry.New(jf)
		defer tel.Journal.Flush()
		experiments.SetTelemetry(tel)
	}

	if *list {
		fmt.Println("experiments:")
		for _, name := range experiments.Names() {
			fmt.Printf("  %s\n", name)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "spatl-bench: -exp is required (use -list to see ids)")
		os.Exit(2)
	}
	s, err := experiments.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatl-bench:", err)
		os.Exit(2)
	}
	if *archs != "" {
		s.Archs = strings.Split(*archs, ",")
	}
	if *clients != "" {
		var sets []experiments.ClientSet
		for _, part := range strings.Split(*clients, ",") {
			var cs experiments.ClientSet
			if _, err := fmt.Sscanf(part, "%d:%f", &cs.Clients, &cs.Ratio); err != nil {
				fmt.Fprintf(os.Stderr, "spatl-bench: bad -clients entry %q (want N:ratio)\n", part)
				os.Exit(2)
			}
			sets = append(sets, cs)
		}
		s.ClientSets = sets
	}
	if *rounds > 0 {
		s.Rounds = *rounds
		s.CurveRounds = *rounds
	}
	if *perClient > 0 {
		s.PerClient = *perClient
	}
	opts := experiments.Options{Scale: s, Out: os.Stdout, CSVDir: *csvDir, Seed: *seed}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Names()
	}
	for _, id := range ids {
		run, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "spatl-bench: unknown experiment %q (known: %s)\n",
				id, strings.Join(experiments.Names(), ", "))
			os.Exit(2)
		}
		start := time.Now()
		fmt.Printf("\n######## experiment %s (scale %s) ########\n", id, s.Name)
		if err := run(opts); err != nil {
			fmt.Fprintf(os.Stderr, "spatl-bench: %s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("\n[%s done in %s]\n", id, time.Since(start).Round(time.Millisecond))
	}
}
