package experiments

import (
	"fmt"

	"spatl/internal/comm"
	"spatl/internal/stats"
)

// Compression is an extension experiment beyond the paper: it composes
// SPATL's salient selection with half-precision payloads
// (scenario.Spec.HalfPrecision) and reports accuracy vs uplink for FedAvg
// and SPATL at both precisions. The expected shape: f16 halves every
// method's bytes at negligible accuracy cost, and the two mechanisms
// compose (SPATL-f16 is the cheapest configuration).
func Compression(o Options) error {
	w := o.out()
	cs := o.Scale.ClientSets[0]
	fmt.Fprintf(w, "\n== compression extension: resnet20, %d clients, %d rounds ==\n",
		cs.Clients, o.Scale.CurveRounds)
	tw := table(o)
	fmt.Fprintf(tw, "config\tbest acc\ttotal up MB\tvs fedavg-f32\n")
	var base int64 // fedavg-f32, the first row
	for _, algo := range []string{"fedavg", "spatl"} {
		for _, bits := range []int{32, 16} {
			spec := cellSpec(o, algo, "resnet20", cs, o.Scale.CurveRounds)
			spec.HalfPrecision = bits == 16
			res := trajectory(o, spec)
			up := res.Records[len(res.Records)-1].CumUp
			if base == 0 {
				base = up
			}
			fmt.Fprintf(tw, "%s-f%d\t%.4f\t%.2f\t%.2fx\n",
				algo, bits, res.BestAcc(), comm.MB(up), float64(base)/float64(up))
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "\nexpected shape: f16 halves bytes at negligible accuracy cost; salient")
	fmt.Fprintln(w, "selection and quantization compose — spatl-f16 is the cheapest uplink.")
	return nil
}

// Robustness is an extension experiment beyond the paper: accuracy under
// client failure injection (straggler drops) at increasing drop rates,
// FedAvg vs SPATL. Federated averaging tolerates lost uploads gracefully;
// the question is whether SPATL's sparse aggregation does too.
func Robustness(o Options) error {
	w := o.out()
	cs := o.Scale.ClientSets[len(o.Scale.ClientSets)-1]
	fmt.Fprintf(w, "\n== robustness extension: resnet20, %d clients, drop-rate sweep ==\n", cs.Clients)
	rates := []float64{0, 0.2, 0.4, 0.6}
	tw := table(o)
	fmt.Fprintf(tw, "drop rate\tfedavg best acc\tspatl best acc\n")
	series := []stats.Series{{Name: "fedavg"}, {Name: "spatl"}}
	for _, rate := range rates {
		row := make([]float64, 2)
		for i, algo := range []string{"fedavg", "spatl"} {
			spec := cellSpec(o, algo, "resnet20", cs, o.Scale.CurveRounds)
			spec.Churn = rate
			res := trajectory(o, spec)
			row[i] = res.BestAcc()
			series[i].X = append(series[i].X, rate)
			series[i].Y = append(series[i].Y, res.BestAcc())
		}
		fmt.Fprintf(tw, "%.1f\t%.4f\t%.4f\n", rate, row[0], row[1])
	}
	tw.Flush()
	fmt.Fprintln(w, "\nexpected shape: both degrade gracefully with drop rate; SPATL's per-index")
	fmt.Fprintln(w, "aggregation needs no special handling for missing uploads.")
	return writeCSV(o, "robustness_droprate", "drop_rate", series...)
}
