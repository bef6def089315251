package experiments

import (
	"fmt"

	"spatl/internal/fl"
	"spatl/internal/scenario"
	"spatl/internal/stats"
)

// LearningEfficiency reproduces the paper's learning-curve figure
// (§V-B, Fig. "vgg_cifar"): average client accuracy vs communication
// round for SPATL and the four baselines, across architectures and
// client populations.
func LearningEfficiency(o Options) error {
	w := o.out()
	for _, arch := range o.Scale.Archs {
		for _, cs := range o.Scale.ClientSets {
			fmt.Fprintf(w, "\n== learning efficiency: %s, %d clients, sample ratio %.1f ==\n",
				arch, cs.Clients, cs.Ratio)
			if err := curves(o, fmt.Sprintf("learning_%s_c%d", arch, cs.Clients), func(algo string) scenario.Spec {
				return cellSpec(o, algo, arch, cs, o.Scale.CurveRounds)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// FEMNISTLearning reproduces the 2-layer-CNN-on-FEMNIST curve — the one
// setting where the paper reports SPATL slightly *behind* the baselines
// because the small model breaks the over-parameterization assumption.
func FEMNISTLearning(o Options) error {
	cs := o.Scale.ClientSets[0]
	fmt.Fprintf(o.out(), "\n== FEMNIST (LEAF), 2-layer CNN, %d clients ==\n", cs.Clients)
	return curves(o, "learning_femnist", func(algo string) scenario.Spec {
		spec := cellSpec(o, algo, "cnn2", cs, o.Scale.CurveRounds)
		spec.Dataset = scenario.DataFEMNIST
		return spec
	})
}

// curves prints one final/best/sparkline row per algorithm of AllAlgos
// and exports the accuracy curves as name.
func curves(o Options, name string, spec func(algo string) scenario.Spec) error {
	var series []stats.Series
	tw := table(o)
	fmt.Fprintf(tw, "algo\tfinal acc\tbest acc\tcurve\n")
	for _, algo := range AllAlgos {
		res := trajectory(o, spec(algo))
		s := accSeries(algo, res)
		series = append(series, s)
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%s\n", algo, res.FinalAcc(), res.BestAcc(), stats.Sparkline(s.Y))
	}
	tw.Flush()
	return writeCSV(o, name, "round", series...)
}

// ConvergeAccuracy reproduces Fig. 3: converged accuracy per method per
// FL setting (the bar chart form of the learning curves).
func ConvergeAccuracy(o Options) error {
	w := o.out()
	for _, arch := range o.Scale.Archs {
		for _, cs := range o.Scale.ClientSets {
			fmt.Fprintf(w, "\n== converge accuracy: %s, %d clients (ratio %.1f) ==\n", arch, cs.Clients, cs.Ratio)
			tw := table(o)
			fmt.Fprintf(tw, "algo\tconverge acc\tΔ vs fedavg\n")
			var fedavgAcc float64
			for _, algo := range AllAlgos {
				res := trajectory(o, cellSpec(o, algo, arch, cs, o.Scale.Rounds))
				acc := res.BestAcc()
				if algo == "fedavg" {
					fedavgAcc = acc
				}
				fmt.Fprintf(tw, "%s\t%.4f\t%+.4f\n", algo, acc, acc-fedavgAcc)
			}
			tw.Flush()
		}
	}
	return nil
}

// LocalAccuracy reproduces Fig. "local_acc": per-client accuracy after
// training completes (ResNet-20, first client set), comparing SPATL's
// personalized models with SCAFFOLD's uniform model. The paper's finding:
// SPATL's per-client accuracies are higher and tighter.
func LocalAccuracy(o Options) error {
	w := o.out()
	cs := o.Scale.ClientSets[0]
	fmt.Fprintf(w, "\n== per-client local accuracy: resnet20, %d clients ==\n", cs.Clients)
	tw := table(o)
	fmt.Fprintf(tw, "algo\tmean\tstd\tmin\tmax\tper-client\n")
	var series []stats.Series
	for _, algo := range []string{"spatl", "scaffold", "fedavg"} {
		env := BuildCIFAREnv(o.Scale, "resnet20", cs, o.Seed)
		res := fl.Run(env, NewAlgorithm(algo, o.Scale, o.Seed), fl.RunOpts{Rounds: o.Scale.Rounds})
		per := res.Records[len(res.Records)-1].PerClient
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t", algo,
			stats.Mean(per), stats.Std(per), stats.Min(per), stats.Max(per))
		s := stats.Series{Name: algo}
		for i, v := range per {
			fmt.Fprintf(tw, "%.2f ", v)
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, v)
		}
		fmt.Fprintln(tw)
		series = append(series, s)
	}
	tw.Flush()
	return writeCSV(o, "local_accuracy", "client", series...)
}

// RoundsToTarget reproduces Fig. "train_rounds": communication rounds
// each method needs to reach the target accuracy, across FL settings.
func RoundsToTarget(o Options) error {
	w := o.out()
	target := o.Scale.TargetAcc
	for _, arch := range o.Scale.Archs {
		for _, cs := range o.Scale.ClientSets {
			fmt.Fprintf(w, "\n== rounds to %.0f%% accuracy: %s, %d clients ==\n", target*100, arch, cs.Clients)
			tw := table(o)
			fmt.Fprintf(tw, "algo\trounds\treached\n")
			for _, algo := range AllAlgos {
				res := trajectory(o, cellSpec(o, algo, arch, cs, o.Scale.Rounds))
				if r := res.RoundsToAcc(target); r < 0 {
					fmt.Fprintf(tw, "%s\t>%d\tno (best %.3f)\n", algo, o.Scale.Rounds, res.BestAcc())
				} else {
					fmt.Fprintf(tw, "%s\t%d\tyes\n", algo, r)
				}
			}
			tw.Flush()
		}
	}
	return nil
}
