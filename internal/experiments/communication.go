package experiments

import (
	"fmt"

	"spatl/internal/comm"
)

// Table1Communication reproduces Table I: communication cost to reach a
// target accuracy at the first client setting. For each method and
// model it reports the rounds used, the measured per-round per-client
// uplink, the total uplink, and the speedup relative to FedAvg —
// reproducing the paper's accounting (eq. 13, uplink volume). Uplink is
// counted up to the first round at target, or over the whole run.
func Table1Communication(o Options) error {
	w := o.out()
	cs := o.Scale.ClientSets[0]
	target := o.Scale.TargetAcc
	fmt.Fprintf(w, "\n== Table I: communication cost to %.0f%% accuracy (%d clients) ==\n", target*100, cs.Clients)
	for _, arch := range o.Scale.Archs {
		fmt.Fprintf(w, "\n-- %s --\n", arch)
		tw := table(o)
		fmt.Fprintf(tw, "method\trounds\tMB/round/client\ttotal MB\tspeedup\n")
		var fedavgTotal int64
		for _, algo := range AllAlgos {
			res := trajectory(o, cellSpec(o, algo, arch, cs, o.Scale.Rounds))
			rounds := res.RoundsToAcc(target)
			total := res.UpAt(target)
			roundsLabel := fmt.Sprintf("%d", rounds)
			usedRounds := rounds
			if rounds < 0 {
				roundsLabel = fmt.Sprintf(">%d", o.Scale.Rounds)
				usedRounds = len(res.Records)
			}
			perRoundClient := float64(total) / float64(usedRounds) / (float64(cs.Clients) * cs.Ratio)
			if algo == "fedavg" {
				fedavgTotal = total
			}
			speedup := float64(fedavgTotal) / float64(total)
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.2f\t%.2fx\n",
				algo, roundsLabel, perRoundClient/(1<<20), comm.MB(total), speedup)
		}
		tw.Flush()
	}
	fmt.Fprintln(w, "\nexpected shape (paper): FedNova/SCAFFOLD ≈2x FedAvg per round; SPATL per-round ≈ FedAvg")
	fmt.Fprintln(w, "with the lowest total cost; SCAFFOLD round-efficient at this small population.")
	return nil
}

// Table2Convergence reproduces Table II: training to convergence at the
// larger client populations — converge rounds, per-round and total
// communication, speedup, and converged accuracy with its delta against
// FedAvg. The paper's headline shape: gradient-control baselines pay 2×
// per round; SCAFFOLD destabilizes as the population grows; SPATL has
// the best accuracy at equal-or-lower total cost.
func Table2Convergence(o Options) error {
	w := o.out()
	sets := o.Scale.ClientSets
	if len(sets) > 1 {
		sets = sets[1:] // Table II is about the larger populations
	}
	for _, arch := range o.Scale.Archs {
		for _, cs := range sets {
			fmt.Fprintf(w, "\n== Table II: %s, %d clients, sample ratio %.1f ==\n", arch, cs.Clients, cs.Ratio)
			tw := table(o)
			fmt.Fprintf(tw, "method\tconverge round\tMB/round/client\ttotal MB\tspeedup\tavg converge acc\tΔacc\n")
			var fedavgTotal int64
			var fedavgAcc float64
			for _, algo := range AllAlgos {
				res := trajectory(o, cellSpec(o, algo, arch, cs, o.Scale.Rounds))
				conv := res.ConvergedRound(o.Scale.Rounds/5, 0.005)
				total := res.Records[len(res.Records)-1].CumUp
				perRoundClient := float64(total) / float64(len(res.Records)) / (float64(cs.Clients) * cs.Ratio)
				acc := res.BestAcc()
				if algo == "fedavg" {
					fedavgTotal, fedavgAcc = total, acc
				}
				fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.2f\t%.2fx\t%.4f\t%+.4f\n",
					algo, conv, perRoundClient/(1<<20), comm.MB(total),
					float64(fedavgTotal)/float64(total), acc, acc-fedavgAcc)
			}
			tw.Flush()
		}
	}
	return nil
}
