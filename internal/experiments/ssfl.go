package experiments

import (
	"fmt"

	"spatl/internal/comm"
	"spatl/internal/stats"
)

// SSFLCommunication compares the sparse-native SSFL protocol against
// SPATL on the same workload: accuracy trajectories side by side, and
// the per-round wire cost in both directions. SSFL pays a dense
// agreement round up front, ships its index ranges exactly once, and
// then every round is values-only in both directions — so its
// steady-state rows are the ones to compare against SPATL's per-round
// cost (which re-ships index ranges and control deltas every round).
func SSFLCommunication(o Options) error {
	w := o.out()
	cs := o.Scale.ClientSets[0]
	arch := o.Scale.Archs[0]
	rounds := o.Scale.CurveRounds
	fmt.Fprintf(w, "\n== SSFL vs SPATL: wire bytes and accuracy (%s, %d clients, %d rounds) ==\n",
		arch, cs.Clients, rounds)

	tw := table(o)
	fmt.Fprintf(tw, "method\tround\tup MB\tdown MB\tacc\n")
	var accs, ups []stats.Series
	var total [2]int64
	for i, name := range []string{"ssfl", "spatl"} {
		res := trajectory(o, cellSpec(o, name, arch, cs, rounds))
		var prevUp, prevDown int64
		s := stats.Series{Name: name + "-up-bytes"}
		for _, rec := range res.Records {
			up, down := rec.CumUp-prevUp, rec.CumDown-prevDown
			prevUp, prevDown = rec.CumUp, rec.CumDown
			fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\t%.4f\n",
				name, rec.Round, comm.MB(up), comm.MB(down), rec.AvgAcc)
			s.X = append(s.X, float64(rec.Round+1))
			s.Y = append(s.Y, float64(up))
		}
		accs = append(accs, accSeries(name, res))
		ups = append(ups, s)
		total[i] = prevUp
	}
	tw.Flush()
	fmt.Fprintf(w, "\ntotal uplink: ssfl %.2f MB, spatl %.2f MB (ratio %.2fx)\n",
		comm.MB(total[0]), comm.MB(total[1]), float64(total[1])/float64(total[0]))
	fmt.Fprintln(w, "expected shape: after round 1 the ssfl rows are values-only frames — strictly below")
	fmt.Fprintln(w, "spatl in both directions; the dense round-0 agreement is the one-time price.")

	if err := writeCSV(o, "ssfl-comm-acc", "round", accs...); err != nil {
		return err
	}
	return writeCSV(o, "ssfl-comm-bytes", "round", ups...)
}
