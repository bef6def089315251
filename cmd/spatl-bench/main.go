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
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spatl/internal/experiments"
	"spatl/internal/models"
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
		journal   = flag.String("journal", "", "append the zero-time JSONL journal of every scenario cell the experiments train to this file")

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
	s, err := scaleFromFlags(*scale, *archs, *clients, *rounds, *perClient)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatl-bench:", err)
		os.Exit(2)
	}
	var jf *os.File
	if *journal != "" {
		if jf, err = os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "spatl-bench:", err)
			os.Exit(1)
		}
		_ = experiments.SetJournal(jf) // no sink before this one, so no error to report
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
	if jf != nil {
		if err := errors.Join(experiments.SetJournal(nil), jf.Close()); err != nil {
			fmt.Fprintln(os.Stderr, "spatl-bench: -journal:", err)
			os.Exit(1)
		}
	}
}

// scaleFromFlags applies the override flags to the scale preset,
// refusing what a run would replace or panic on: a client count below 1,
// a sample ratio outside (0, 1], an architecture models.Build lacks.
func scaleFromFlags(name, archs, clients string, rounds, perClient int) (experiments.Scale, error) {
	s, err := experiments.ScaleByName(name)
	if err != nil {
		return s, err
	}
	if archs != "" {
		s.Archs = strings.Split(archs, ",")
	}
	if clients != "" {
		s.ClientSets = nil
		for _, part := range strings.Split(clients, ",") {
			var cs experiments.ClientSet
			_, err := fmt.Sscanf(part, "%d:%f", &cs.Clients, &cs.Ratio)
			if err != nil || cs.Clients < 1 || cs.Ratio <= 0 || cs.Ratio > 1 {
				return s, fmt.Errorf("bad -clients entry %q (want N:ratio, N >= 1, ratio in (0, 1])", part)
			}
			s.ClientSets = append(s.ClientSets, cs)
		}
	}
	for _, arch := range s.Archs {
		if !models.KnownArch(arch) {
			return s, fmt.Errorf("unknown architecture %q in -archs", arch)
		}
	}
	if rounds > 0 {
		s.Rounds, s.CurveRounds = rounds, rounds
	}
	if perClient > 0 {
		s.PerClient = perClient
	}
	return s, nil
}
