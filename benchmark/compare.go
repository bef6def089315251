package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// worsening is by how much b is worse than a, as a share of a (positive
// is worse), given which direction is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints every end-to-end metric of b against a (the
// base), one workload per block and one metric per row, with the ratio
// and its base, and flags what worsened beyond its bound. Results from
// different machines are not compared.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	if !a.Fingerprint.sameMachine(b.Fingerprint) {
		return fmt.Errorf("fingerprints differ, not comparing:\n  %s: %s\n  %s: %s", pathA, a.Fingerprint, pathB, b.Fingerprint)
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return fmt.Errorf("runs differ in seed or length (%d/%gs vs %d/%gs), not comparing", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	fmt.Fprintf(w, "base %s (commit %s)\nnew  %s (commit %s)\n", pathA, a.Fingerprint.Commit, pathB, b.Fingerprint.Commit)
	untraced := func(res *result, name string) *report {
		for _, r := range res.Runs {
			if r.Workload == name && !r.Traced {
				return r
			}
		}
		return nil
	}
	beyond := 0
	for _, wl := range workloads {
		ra, rb := untraced(a, wl.Name), untraced(b, wl.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%s: missing from one of the results\n", wl.Name)
			beyond++
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		row := func(d metricDef, absBound float64, va, vb value, ok bool) {
			if !ok {
				return
			}
			ratio := 0.0
			if va.Value != 0 {
				ratio = vb.Value / va.Value
			}
			worse := worsening(va.Value, vb.Value, d.Better)
			flag, bound := "", fmt.Sprintf("%.0f%%", 100*d.Bound)
			if absBound > 0 {
				bound = fmt.Sprintf("%g %s", absBound, d.Unit)
				if worse*va.Value > absBound {
					flag = "  BEYOND BOUND"
				}
			} else if worse > d.Bound {
				flag = "  BEYOND BOUND"
			}
			if flag != "" {
				beyond++
			}
			fmt.Fprintf(w, "  %-20s %12.6g -> %12.6g %-8s x%.4f of base %.6g (%s is better, bound %s)%s\n",
				d.Name, va.Value, vb.Value, d.Unit, ratio, va.Value, d.Better, bound, flag)
		}
		for _, d := range endToEnd {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			absBound := 0.0
			if d.Name == "setup_s" {
				absBound = setupFloorS(va.Value, d.Bound)
			}
			row(d, absBound, va, vb, okA && okB)
		}
		for _, d := range card {
			va, okA := ra.Card[d.Name]
			vb, okB := rb.Card[d.Name]
			if strings.HasSuffix(d.Name, "_to_target") && okA && okB && !(ra.TargetReached && rb.TargetReached) {
				fmt.Fprintf(w, "  %-20s not compared: a run ended before reaching the target\n", d.Name)
				continue
			}
			row(d.metricDef, d.AbsBound, va, vb, okA && okB)
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "  failed uploads %d -> %d  BEYOND BOUND (bound 0)\n", ra.Failed, rb.Failed)
			beyond++
		}
	}
	if beyond > 0 {
		return fmt.Errorf("%d metric(s) beyond their bounds", beyond)
	}
	fmt.Fprintln(w, "every end-to-end metric of every workload is within its bound")
	return nil
}

// setupFloorS is setup_s's allowed worsening in seconds: its relative
// bound, but never less than a quarter of a second, so a millisecond
// set-up is not flagged for scheduler noise. Returns 0 when the
// relative bound is the larger and applies as it stands.
func setupFloorS(base, bound float64) float64 {
	if base*bound < 0.25 {
		return 0.25
	}
	return 0
}
