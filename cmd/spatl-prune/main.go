// Command spatl-prune runs the standalone network-pruning task: train a
// model centrally, then prune it with the RL selection agent or one of
// the baseline methods, reporting FLOPs reduction and accuracy before
// and after fine-tuning.
//
//	spatl-prune -arch resnet20 -method agent -budget 0.5
//	spatl-prune -arch vgg11 -method fpgm -budget 0.6
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"spatl/internal/core"
	"spatl/internal/data"
	"spatl/internal/experiments"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/prune"
	"spatl/internal/rl"
	"spatl/internal/tensor"
)

func main() {
	var (
		arch   = flag.String("arch", "resnet20", "model architecture")
		method = flag.String("method", "agent", "pruning method: agent | l1 | fpgm | sfp | dsa")
		budget = flag.Float64("budget", 0.6, "FLOPs budget (pruned/total ratio)")
		scale  = flag.String("scale", "small", "scale preset: tiny | small | paper")
		epochs = flag.Int("epochs", 4, "centralized pre-training epochs")
		ftEp   = flag.Int("finetune", 2, "fine-tuning epochs after pruning")
		seed   = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()

	s, err := experiments.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatl-prune:", err)
		os.Exit(2)
	}

	spec := models.Spec{Arch: *arch, Classes: s.Classes, InC: 3, H: s.H, W: s.W, Width: s.Width}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: s.Classes, H: s.H, W: s.W, Noise: 0.3},
		80*s.Classes, *seed*3+101, *seed+501)
	train, val := ds.Split(0.85)

	m := models.Build(spec, *seed+41)
	fmt.Printf("pre-training %s centrally for %d epochs...\n", spec, *epochs)
	centralTrain(m, train, *epochs, s.LR, *seed)
	baseAcc := fl.EvalAccuracy(m, val, 64)
	params, flops := m.Describe()
	fmt.Printf("unpruned: acc %.4f, %d params, %d FLOPs/instance\n", baseAcc, params, flops)

	var masks []prune.Mask
	rng := rand.New(rand.NewSource(*seed + 7))
	switch *method {
	case "agent":
		fmt.Println("fine-tuning pre-trained GNN+PPO agent on this model...")
		agent := rl.NewAgent(rl.AgentConfig{Dim: s.AgentDim, HeadHidden: s.AgentHidden, Seed: *seed + 31})
		agent.Load(experiments.PretrainedAgent(s, *seed))
		core.FineTuneAgent(agent, m, val, *budget, s.FineTuneRounds, 2, *seed+47)
		env := prune.NewEnv(m, val, *budget)
		masks = prune.Select(m, rl.BestAction(agent, env)).Masks
		fmt.Printf("agent footprint: %.1f KB\n", float64(agent.SizeBytes())/1024)
	case "l1":
		masks = prune.L1Masks(m, prune.UniformRatiosForBudget(m, *budget))
	case "fpgm":
		masks = prune.FPGMMasks(m, prune.UniformRatiosForBudget(m, *budget))
	case "sfp":
		masks = prune.SFP(m, train, prune.UniformRatiosForBudget(m, *budget), 2, s.LR, rng)
	case "dsa":
		masks = prune.DSAMasks(m, val, *budget)
	default:
		fmt.Fprintf(os.Stderr, "spatl-prune: unknown method %q\n", *method)
		os.Exit(2)
	}

	sel := prune.SelectWithMasks(m, masks)
	pr, tot := prune.MaskedFLOPs(m, masks)
	masked := fl.EvalAccuracy(prune.Extract(m, sel), val, 64)
	fmt.Printf("pruned (%s): FLOPs %.1f%% of original (%.1f%% reduction), masked acc %.4f\n",
		*method, 100*float64(pr)/float64(tot), 100*(1-float64(pr)/float64(tot)), masked)

	fmt.Printf("fine-tuning pruned model for %d epochs...\n", *ftEp)
	prune.FineTune(m, sel, train, *ftEp, s.LR/2, rng)
	after := fl.EvalAccuracy(m, val, 64)
	fmt.Printf("after fine-tune: acc %.4f (Δ %+0.4f vs unpruned)\n", after, after-baseAcc)
	for i, mk := range sel.Masks {
		fmt.Printf("  unit %2d: kept %d/%d channels (%.0f%%)\n", i, mk.Kept, len(mk.Keep), 100*mk.Frac())
	}
}

func centralTrain(m *models.SplitModel, train *data.Dataset, epochs int, lr float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	params := m.Params()
	opt := nn.NewSGD(params, lr, 0.9, 0)
	for e := 0; e < epochs; e++ {
		for _, idx := range train.Batches(rng, 32) {
			x, y := train.Batch(idx)
			nn.ZeroGrad(params)
			var out *tensor.Tensor
			out = m.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(out, y)
			m.Backward(grad)
			opt.Step()
		}
	}
}
