package experiments

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"sync"

	"spatl/internal/fl"
	"spatl/internal/scenario"
	"spatl/internal/stats"
)

// cellSpec is the scale's cell for one algorithm on arch at cs, asked
// for its first rounds rounds.
func cellSpec(o Options, algo, arch string, cs ClientSet, rounds int) scenario.Spec {
	spec := SpecFromScale(o.Scale, arch, cs, o.Seed)
	spec.Algo, spec.Rounds = algo, rounds
	return spec
}

// cells holds every trajectory trained in this process, keyed by spec
// without Rounds.
var cells = struct {
	sync.Mutex
	runs       map[string][]fl.RoundRecord
	journal    io.Writer
	journalErr error // the first write error; later cells skip the sink
}{runs: map[string][]fl.RoundRecord{}}

// SetJournal appends the zero-time journal of every cell trained from
// now on to w (nil stops) — spatl-bench's -journal. It returns the first
// error writing to the sink it replaces.
func SetJournal(w io.Writer) error {
	cells.Lock()
	defer cells.Unlock()
	err := cells.journalErr
	cells.journal, cells.journalErr = w, nil
	return err
}

// trajectory returns the first spec.Rounds rounds of spec's federation,
// run and reduced as a matrix cell is (RunCell, StatsFromJournal). A
// cell trains once per process, for the scale's longest round budget, so
// a shorter request is a prefix of the same run. Like BuildCIFAREnv it
// panics on a spec that cannot run (a bug, once overrides are checked).
func trajectory(o Options, spec scenario.Spec) *fl.Result {
	want := spec.Rounds
	spec.Rounds = 0
	key := scenario.SpecHash(spec)
	cells.Lock()
	defer cells.Unlock()
	recs, ok := cells.runs[key]
	if !ok || len(recs) < want {
		spec.Rounds = max(want, o.Scale.Rounds, o.Scale.CurveRounds)
		var journal bytes.Buffer
		err := scenario.RunCell(spec, &journal)
		st, serr := scenario.StatsFromJournal(bytes.NewReader(journal.Bytes()), spec)
		if err = cmp.Or(err, serr); err != nil {
			panic(fmt.Sprintf("experiments: cell %s: %v", spec.Key(), err))
		}
		if cells.journal != nil && cells.journalErr == nil {
			_, cells.journalErr = cells.journal.Write(journal.Bytes())
		}
		recs = st.Trajectory.Records
		cells.runs[key] = recs
	}
	return &fl.Result{Records: recs[:want]}
}

// accSeries converts a trajectory into a plot series.
func accSeries(name string, res *fl.Result) stats.Series {
	s := stats.Series{Name: name}
	for _, r := range res.Records {
		s.X = append(s.X, float64(r.Round+1))
		s.Y = append(s.Y, r.AvgAcc)
	}
	return s
}
