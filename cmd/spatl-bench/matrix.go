package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"spatl/internal/scenario"
)

// loadMatrix resolves the -matrix argument: a bundled preset name or a
// JSON file holding either a full matrix ({"base": ..., "axes": ...})
// or a single cell spec (wrapped into a one-cell matrix).
func loadMatrix(arg string) (scenario.Matrix, error) {
	if p, ok := scenario.PresetByName(arg); ok {
		return p.Matrix, nil
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		return scenario.Matrix{}, fmt.Errorf("-matrix %q is neither a preset (%s) nor a readable file: %w",
			arg, presetNames(), err)
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(b, &probe); err != nil {
		return scenario.Matrix{}, fmt.Errorf("%s: %w", arg, err)
	}
	if _, isMatrix := probe["base"]; isMatrix {
		m, err := scenario.DecodeMatrix(b)
		if err != nil {
			return scenario.Matrix{}, fmt.Errorf("%s: %w", arg, err)
		}
		return m, nil
	}
	spec, err := scenario.DecodeSpec(b)
	if err != nil {
		return scenario.Matrix{}, fmt.Errorf("%s: %w", arg, err)
	}
	return scenario.Matrix{Name: spec.Label(), Base: spec}, nil
}

func presetNames() string {
	var names []string
	for _, p := range scenario.Presets() {
		names = append(names, p.Name)
	}
	return strings.Join(names, "|")
}

// listMatrices enumerates the bundled presets with their axes and
// expanded cell counts — `spatl-bench -matrix list` (or -matrix -list).
func listMatrices(w io.Writer) error {
	fmt.Fprintln(w, "bundled scenario matrices (run with -matrix <name>, or pass a JSON file):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  name\tcells\tdescription")
	for _, p := range scenario.Presets() {
		fmt.Fprintf(tw, "  %s\t%d\t%s\n", p.Name, p.Matrix.CellCount(), p.Description)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nregistered algorithms: %v\n", scenario.AlgoNames())
	fmt.Fprintln(w, "axes: algos, archs, clients, participation, alphas, shards_per_client, transports, churn, clusters, width_dists, seeds")
	fmt.Fprintln(w, "use -matrix <name> -dry to preview a matrix's cells without running it")
	return nil
}

// runMatrixCmd is the -matrix entry point.
func runMatrixCmd(arg, outDir string, workers int, force, dry, cache bool) error {
	if arg == "list" || arg == "-list" || arg == "true" {
		// "-matrix -list" parses as the value "-list"; "-matrix list" is
		// the documented spelling. Both enumerate.
		return listMatrices(os.Stdout)
	}
	m, err := loadMatrix(arg)
	if err != nil {
		return err
	}
	// The dry-run expansion doubles as the cell-cap guard: an over-cap
	// matrix refuses to expand (and so to run) unless -force is given.
	cells, err := m.Expand(force)
	if err != nil {
		return err
	}
	if dry {
		fmt.Printf("matrix %s: %d cells\n", m.Name, len(cells))
		for _, c := range cells {
			fmt.Printf("  %s  (seed %d)\n", c.Key(), c.Seed)
		}
		return nil
	}
	fmt.Printf("matrix %s: running %d cells -> %s\n", m.Name, len(cells), outDir)
	results, err := scenario.RunMatrix(m, scenario.RunOptions{
		OutDir: outDir, Workers: workers, Force: force, Cache: cache, Log: os.Stdout,
	})
	if err != nil {
		return err
	}
	if cache {
		hits := 0
		for _, r := range results {
			if r.Cached {
				hits++
			}
		}
		fmt.Printf("cache: %d/%d cells reused\n", hits, len(results))
	}
	fmt.Println()
	if err := scenario.WriteReport(os.Stdout, m.Name, results); err != nil {
		return err
	}
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
	}
	fmt.Printf("\njournals and report.{txt,csv} in %s\n", outDir)
	if failed > 0 {
		return fmt.Errorf("%d/%d cells failed (see report)", failed, len(results))
	}
	return nil
}
