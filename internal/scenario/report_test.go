package scenario

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spatl/internal/fl"
	"spatl/internal/telemetry"
)

// fakeJournal assembles a two-round journal with one drop, one late
// upload and two evals.
func fakeJournal(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	j.SetZeroTime(true)
	j.Emit(telemetry.RoundStart(0, 2, 100))
	j.Emit(telemetry.ClientUpload(0, 0, 50, 0))
	j.Emit(telemetry.Drop(0, 1))
	j.Emit(telemetry.RoundEnd(0, 50, 200))
	j.Emit(telemetry.Eval(0, 0.25))
	j.Emit(telemetry.RoundStart(1, 2, 100))
	j.Emit(telemetry.LateUpload(1, 1, 50))
	j.Emit(telemetry.ClientUpload(1, 0, 50, 0))
	j.Emit(telemetry.ClientUpload(1, 1, 50, 0))
	j.Emit(telemetry.RoundEnd(1, 200, 400))
	j.Emit(telemetry.Eval(1, 0.4))
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStatsFromJournalCounts(t *testing.T) {
	spec := microBase()
	spec.Clients = 2
	spec.TargetAcc = 0.3
	st, err := StatsFromJournal(bytes.NewReader(fakeJournal(t)), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	if st.FinalAcc != 0.4 || st.BestAcc != 0.4 {
		t.Fatalf("acc final=%v best=%v", st.FinalAcc, st.BestAcc)
	}
	if st.RoundsToTarget != 2 {
		t.Fatalf("rounds-to-target = %d, want 2 (0.4 >= 0.3 at round 1)", st.RoundsToTarget)
	}
	if st.UpBytes != 200 || st.DownBytes != 400 {
		t.Fatalf("bytes up=%d down=%d", st.UpBytes, st.DownBytes)
	}
	if st.Drops != 1 || st.LateUploads != 1 {
		t.Fatalf("drops=%d late=%d", st.Drops, st.LateUploads)
	}
	if st.SimSeconds != 0 {
		t.Fatalf("no Net configured but SimSeconds = %v", st.SimSeconds)
	}
}

// TestTrajectoryFromJournalMatchesRun: fl.Result has two producers, and
// they agree. The trajectory StatsFromJournal rebuilds from a cell's
// journal equals the records fl.Run returns for the same seeded cell in
// round, accuracy, cumulative bytes and selection, with churn dropping
// selected clients along the way.
func TestTrajectoryFromJournalMatchesRun(t *testing.T) {
	spec := microBase()
	spec.Algo, spec.Participation, spec.Churn = "scaffold", 0.5, 0.5
	var journal bytes.Buffer
	if err := RunCell(spec, &journal); err != nil {
		t.Fatal(err)
	}
	st, err := StatsFromJournal(&journal, spec)
	if err != nil {
		t.Fatal(err)
	}
	env, err := BuildEnv(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewAlgorithm(spec.Algo, Params{Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	want := fl.Run(env, alg, fl.RunOpts{Rounds: spec.Rounds}).Records
	got := st.Trajectory.Records
	if len(got) != len(want) {
		t.Fatalf("journal trajectory has %d records, fl.Run %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Round != w.Round || g.AvgAcc != w.AvgAcc || g.CumUp != w.CumUp || g.CumDown != w.CumDown ||
			!slices.Equal(g.Selected, w.Selected) {
			t.Fatalf("record %d: journal %+v, fl.Run %+v", i, g, w)
		}
	}
	if st.Drops == 0 {
		t.Fatal("churn dropped no client; the selection check saw no drop")
	}
}

// TestStatsTimeModel: with a homogeneous custom link population the
// straggler-bound round time is exactly computable — drops pay download
// only, uploaders download + upload.
func TestStatsTimeModel(t *testing.T) {
	spec := microBase()
	spec.Clients = 2
	// 8 Mbps up, 32 Mbps down (4:1 default), zero spread and latency.
	spec.Net = Net{UpMbps: 8}
	st, err := StatsFromJournal(bytes.NewReader(fakeJournal(t)), spec)
	if err != nil {
		t.Fatal(err)
	}
	down := 100 * 8.0 / 32e6
	up := 50 * 8.0 / 8e6
	want := (down + up) + (down + up) // round 0 straggler = uploader; round 1 same
	if math.Abs(st.SimSeconds-want) > 1e-9 {
		t.Fatalf("SimSeconds = %v, want %v", st.SimSeconds, want)
	}
}

func TestRunMatrixEndToEndWithReport(t *testing.T) {
	m := Matrix{
		Name: "e2e",
		Base: func() Spec { s := microBase(); s.Rounds = 2; s.TargetAcc = 0.1; return s }(),
		Axes: Axes{
			Algos:  []string{"fedavg", "ssfl"},
			Alphas: []float64{0.5, 0.1},
		},
	}
	dir := t.TempDir()
	var log bytes.Buffer
	results, err := RunMatrix(m, RunOptions{OutDir: dir, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d cells", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %s: %v", r.Key, r.Err)
		}
		if r.Stats.UpBytes <= 0 || r.Stats.Rounds != 2 {
			t.Fatalf("cell %s stats not populated: %+v", r.Key, r.Stats)
		}
		if _, err := os.Stat(r.JournalPath); err != nil {
			t.Fatalf("cell %s journal missing: %v", r.Key, err)
		}
	}
	if !strings.Contains(log.String(), "[4/4]") {
		t.Fatalf("progress log incomplete:\n%s", log.String())
	}

	rep, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"e2e: 4 cells", "fedavg", "ssfl", "dir0.5", "dir0.1", "winners"} {
		if !strings.Contains(string(rep), want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}

	csv, err := os.ReadFile(filepath.Join(dir, "report.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 5 { // header + 4 cells
		t.Fatalf("csv has %d lines, want 5:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "cell,algo,transport") {
		t.Fatalf("csv header wrong: %s", lines[0])
	}
}

// TestReportWinnersPickBestPerGroup: two algorithms in one setting →
// one winners line naming the higher-accuracy cell.
func TestReportWinnersPickBestPerGroup(t *testing.T) {
	a := microBase().WithDefaults()
	b := a
	b.Algo = "fedprox"
	results := []CellResult{
		{Spec: a, Key: a.Key(), Stats: CellStats{FinalAcc: 0.3}},
		{Spec: b, Key: b.Key(), Stats: CellStats{FinalAcc: 0.5}},
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, "t", results); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "winners") {
		t.Fatalf("no winners section:\n%s", out)
	}
	wi := strings.Index(out, "winners")
	if !strings.Contains(out[wi:], "fedprox (0.500)") {
		t.Fatalf("winner should be fedprox at 0.500:\n%s", out)
	}
}
