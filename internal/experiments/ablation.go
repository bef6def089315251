package experiments

import (
	"fmt"

	"spatl/internal/algo"
	"spatl/internal/core"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/stats"
)

// spatlVariant builds a SPATL instance with one ablation switch applied.
func spatlVariant(o Options, disable func(*core.Options)) *fl.Federation {
	opts := core.Options{
		FLOPsBudget:      o.Scale.FLOPsBudget,
		AgentCfg:         agentCfg(o.Scale, o.Seed),
		Pretrained:       PretrainedAgent(o.Scale, o.Seed),
		FineTuneRounds:   o.Scale.FineTuneRounds,
		FineTuneEpisodes: 2,
	}
	disable(&opts)
	return fl.NewAlgorithm("spatl",
		func(g *models.SplitModel, cfg algo.Config) *algo.SPATLAggregator {
			return algo.NewSPATLAggregator(g, opts, cfg)
		},
		func(c *fl.Client, cfg algo.Config) *algo.SPATLTrainer {
			return algo.NewSPATLTrainer(c, opts, cfg)
		})
}

// runAblationPair runs SPATL with and without one component and prints
// both trajectories. The with half is the registry's spatl cell; the
// without half needs a switch the registry lacks, so it runs here.
func runAblationPair(o Options, arch string, cs ClientSet, label string, disable func(*core.Options)) error {
	w := o.out()
	fmt.Fprintf(w, "\n== ablation %s: %s, %d clients ==\n", label, arch, cs.Clients)
	with := trajectory(o, cellSpec(o, "spatl", arch, cs, o.Scale.CurveRounds))
	without := fl.Run(BuildCIFAREnv(o.Scale, arch, cs, o.Seed), spatlVariant(o, disable),
		fl.RunOpts{Rounds: o.Scale.CurveRounds})
	tw := table(o)
	fmt.Fprintf(tw, "variant\tfinal acc\tbest acc\ttotal up MB\tcurve\n")
	var series []stats.Series
	names := []string{"with " + label, "without " + label}
	for i, res := range []*fl.Result{with, without} {
		name := names[i]
		s := accSeries(name, res)
		up := float64(res.Records[len(res.Records)-1].CumUp) / (1 << 20)
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.2f\t%s\n", name, res.FinalAcc(), res.BestAcc(), up, stats.Sparkline(s.Y))
		series = append(series, s)
	}
	tw.Flush()
	return writeCSV(o, fmt.Sprintf("ablation_%s_%s_c%d", label, arch, cs.Clients), "round", series...)
}

// AblationSelection reproduces Fig. 4 (§V-F1): SPATL with vs without
// salient parameter selection across client settings (ResNet-20). The
// paper's finding: pruning unimportant weights does not harm training
// stability and can help.
func AblationSelection(o Options) error {
	for _, cs := range o.Scale.ClientSets {
		if err := runAblationPair(o, "resnet20", cs, "selection",
			func(c *core.Options) { c.DisableSelection = true }); err != nil {
			return err
		}
	}
	return nil
}

// AblationTransfer reproduces Fig. 5(a) (§V-F2): SPATL with vs without
// heterogeneous knowledge transfer (ResNet-20, first client set). The
// paper's finding: without local predictors, performance drops sharply
// on non-IID clients.
func AblationTransfer(o Options) error {
	return runAblationPair(o, "resnet20", o.Scale.ClientSets[0], "transfer",
		func(c *core.Options) { c.DisableTransfer = true })
}

// AblationGradientControl reproduces Fig. 5(b) (§V-F3): SPATL with vs
// without gradient control (VGG-11). The paper's finding: control
// variates stabilize training on heterogeneous data — so the ablation
// runs at the most heterogeneous client set (partial participation),
// where gradient drift is largest.
func AblationGradientControl(o Options) error {
	cs := o.Scale.ClientSets[len(o.Scale.ClientSets)-1]
	return runAblationPair(o, "vgg11", cs, "gradient-control",
		func(c *core.Options) { c.DisableGradControl = true })
}
