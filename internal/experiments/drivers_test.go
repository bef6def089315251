package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"spatl/internal/fl"
)

// microOpts shrinks everything to the minimum that still exercises the
// drivers end to end.
func microOpts(t *testing.T, buf *bytes.Buffer) Options {
	t.Helper()
	s := Tiny
	s.ClientSets = []ClientSet{{2, 1.0}}
	s.Rounds = 2
	s.CurveRounds = 2
	s.PerClient = 50
	s.LocalEpochs = 1
	s.PretrainRounds = 1
	s.FineTuneRounds = 1
	return Options{Scale: s, Out: buf, Seed: 2}
}

// TestEveryDriverRuns executes every registered experiment driver at
// micro scale — the full reproduction surface stays green end to end.
func TestEveryDriverRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range Names() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			o := microOpts(t, &buf)
			if err := Registry[id](o); err != nil {
				t.Fatalf("driver %s: %v", id, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("driver %s produced no output", id)
			}
		})
	}
}

// resetCells empties the cell cache, as in a fresh process.
func resetCells() {
	cells.Lock()
	defer cells.Unlock()
	cells.runs = map[string][]fl.RoundRecord{}
}

// TestSharedCellsChangeNoByte: a cell driver prints the same bytes when
// its cells come from the cache as when it trains them itself. Each
// driver first runs alone from an empty cache at a scale whose round
// budget is exactly what it asks for; then every driver runs after
// converge has trained each algorithm's cell for 3 rounds. table1,
// table2 and rounds then read converge's cells at the same key; the
// 2-round curve drivers read a prefix of a longer run.
func TestSharedCellsChangeNoByte(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	base := microOpts(t, &buf)
	base.Scale.Rounds = 3
	run := func(o Options, id string) string {
		buf.Reset()
		if err := Registry[id](o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return buf.String()
	}
	fullRounds := []string{"converge", "rounds", "table1", "table2"}
	curves := []string{"learning", "femnist", "compression", "robustness", "ssfl-comm", "walltime",
		"ablation-select", "ablation-transfer", "ablation-gradctl"}
	alone := map[string]string{}
	short := base
	short.Scale.Rounds = short.Scale.CurveRounds
	for _, id := range fullRounds {
		resetCells()
		alone[id] = run(base, id)
	}
	for _, id := range curves {
		resetCells()
		alone[id] = run(short, id)
	}
	resetCells()
	for _, id := range append(fullRounds, curves...) {
		if got := run(base, id); got != alone[id] {
			t.Errorf("%s from shared cells differs from its own run:\n%s\nvs\n%s", id, got, alone[id])
		}
	}
}

func TestConvergeDriverReportsDeltas(t *testing.T) {
	var buf bytes.Buffer
	o := microOpts(t, &buf)
	if err := ConvergeAccuracy(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Δ vs fedavg") {
		t.Fatal("missing delta column")
	}
}

func TestLocalAccuracyDriverReportsSpread(t *testing.T) {
	var buf bytes.Buffer
	o := microOpts(t, &buf)
	if err := LocalAccuracy(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"mean", "std", "min", "max"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing column %q", col)
		}
	}
}

func TestInferenceDriverReportsDeployedSizes(t *testing.T) {
	var buf bytes.Buffer
	o := microOpts(t, &buf)
	if err := InferenceAcceleration(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FLOPs reduction") || !strings.Contains(out, "deployed params") {
		t.Fatalf("inference output incomplete:\n%s", out)
	}
}

func TestTable4DriverComparesAllPruners(t *testing.T) {
	var buf bytes.Buffer
	o := microOpts(t, &buf)
	if err := Table4Pruning(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, method := range []string{"L1-uniform", "FPGM", "SFP", "DSA", "SPATL agent"} {
		if !strings.Contains(out, method) {
			t.Fatalf("Table IV missing %q", method)
		}
	}
}

func TestTable3DriverReportsTransfer(t *testing.T) {
	var buf bytes.Buffer
	o := microOpts(t, &buf)
	if err := Table3Transfer(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "transfer acc (after FT)") {
		t.Fatal("missing transfer column")
	}
}

func TestSSFLCommDriverComparesProtocols(t *testing.T) {
	var buf bytes.Buffer
	o := microOpts(t, &buf)
	if err := SSFLCommunication(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ssfl", "spatl", "total uplink", "up MB", "down MB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ssfl-comm output missing %q:\n%s", want, out)
		}
	}
}

func TestSVGFiguresWritten(t *testing.T) {
	var buf bytes.Buffer
	o := microOpts(t, &buf)
	o.CSVDir = t.TempDir()
	if err := FEMNISTLearning(o); err != nil {
		t.Fatal(err)
	}
	foundSVG := false
	entries, _ := osReadDir(o.CSVDir)
	for _, e := range entries {
		if strings.HasSuffix(e, ".svg") {
			foundSVG = true
		}
	}
	if !foundSVG {
		t.Fatal("no SVG figure written alongside CSV")
	}
}

// osReadDir lists entry names in dir (helper keeping imports tidy).
func osReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}
