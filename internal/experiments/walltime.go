package experiments

import (
	"fmt"

	"spatl/internal/netsim"
	"spatl/internal/stats"
)

// WallTime is an extension experiment: it converts the measured per-round
// communication volume into simulated wall-clock time over a
// heterogeneous mobile link population (internal/netsim) and reports
// time-to-accuracy. Synchronous rounds wait for the slowest selected
// client, so per-round byte volume — SPATL's lever — translates directly
// into straggler time.
func WallTime(o Options) error {
	w := o.out()
	cs := o.Scale.ClientSets[len(o.Scale.ClientSets)-1]
	target := o.Scale.TargetAcc
	links := netsim.SampleLinks(cs.Clients, netsim.Mobile, o.Seed+71)
	fmt.Fprintf(w, "\n== wall-clock extension: resnet20, %d clients over simulated 4G links ==\n", cs.Clients)

	tw := table(o)
	fmt.Fprintf(tw, "algo\tbest acc\ttotal sim time\ttime to %.0f%%\n", target*100)
	var series []stats.Series
	for _, name := range AllAlgos {
		res := trajectory(o, cellSpec(o, name, "resnet20", cs, o.Scale.CurveRounds))
		// Each round costs its slowest selected client the round's mean
		// per-client download and upload, plus 2 s standing in for local
		// training (identical across algorithms at a given scale).
		s := stats.Series{Name: name}
		var cum float64
		var prevUp, prevDown int64
		for _, rec := range res.Records {
			n := int64(len(rec.Selected))
			cum += netsim.RoundTime(links, rec.Selected, (rec.CumDown-prevDown)/n, (rec.CumUp-prevUp)/n, 2)
			prevUp, prevDown = rec.CumUp, rec.CumDown
			s.X = append(s.X, cum)
			s.Y = append(s.Y, rec.AvgAcc)
		}
		label := "never"
		if r := res.RoundsToAcc(target); r > 0 {
			label = fmt.Sprintf("%.1fs (round %d)", s.X[r-1], r)
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.1fs\t%s\n", name, res.BestAcc(), cum, label)
		series = append(series, s)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nexpected shape: per-round byte volume sets straggler time, so SPATL's")
	fmt.Fprintln(w, "accuracy-vs-seconds curve dominates the 2x-payload baselines.")
	return writeCSV(o, "walltime_accuracy", "seconds", series...)
}
