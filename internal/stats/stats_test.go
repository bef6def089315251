package stats

import (
	"bytes"
	"strings"
	"testing"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Std(xs) != 2 {
		t.Fatalf("Std = %v", Std(xs))
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, "round",
		Series{Name: "a", X: []float64{1, 2}, Y: []float64{0.5, 0.6}},
		Series{Name: "b", X: []float64{1, 2}, Y: []float64{0.3, 0.4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "round,a,b" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "1,0.5,0.3" || lines[2] != "2,0.6,0.4" {
		t.Fatalf("rows %q %q", lines[1], lines[2])
	}
}

func TestWriteCSVUnevenSeries(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, "x",
		Series{Name: "long", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}},
		Series{Name: "short", X: []float64{1}, Y: []float64{9}},
	)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d", len(lines))
	}
	if lines[3] != "3,3," {
		t.Fatalf("short series must leave blank cell: %q", lines[3])
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1})
	if len([]rune(s)) != 2 {
		t.Fatalf("length %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[1] != '█' {
		t.Fatalf("got %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty input gives empty sparkline")
	}
	// Constant series must not divide by zero.
	if got := Sparkline([]float64{5, 5, 5}); len([]rune(got)) != 3 {
		t.Fatal("constant series sparkline wrong length")
	}
}
