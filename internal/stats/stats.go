// Package stats provides the small statistical and reporting helpers the
// experiment harness uses: summary statistics, moving averages, and CSV
// series export for external plotting.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Min returns the minimum (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Series is a named sequence of (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// WriteCSV emits one or more series sharing an x-axis as CSV: the header
// is "x,<name1>,<name2>,..."; rows align by index (shorter series leave
// blanks).
func WriteCSV(w io.Writer, xLabel string, series ...Series) error {
	names := make([]string, len(series))
	maxLen := 0
	for i, s := range series {
		names[i] = s.Name
		if len(s.X) > maxLen {
			maxLen = len(s.X)
		}
	}
	if _, err := fmt.Fprintf(w, "%s,%s\n", xLabel, strings.Join(names, ",")); err != nil {
		return err
	}
	for row := 0; row < maxLen; row++ {
		var x float64
		hasX := false
		cells := make([]string, len(series))
		for i, s := range series {
			if row < len(s.Y) {
				cells[i] = fmt.Sprintf("%g", s.Y[row])
				if !hasX && row < len(s.X) {
					x = s.X[row]
					hasX = true
				}
			}
		}
		if _, err := fmt.Fprintf(w, "%g,%s\n", x, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Sparkline renders ys as a compact unicode sparkline, handy for
// eyeballing learning curves in terminal output.
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := Min(ys), Max(ys)
	var b strings.Builder
	for _, y := range ys {
		idx := 0
		if hi > lo {
			idx = int((y - lo) / (hi - lo) * float64(len(ticks)-1))
		}
		b.WriteRune(ticks[idx])
	}
	return b.String()
}
