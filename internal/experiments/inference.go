package experiments

import (
	"fmt"
	"math/rand"

	"spatl/internal/algo"
	"spatl/internal/core"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/prune"
	"spatl/internal/rl"
	"spatl/internal/stats"
)

// InferenceAcceleration reproduces the inference table (§V-D): after
// SPATL training completes, each client's salient selection doubles as a
// structured pruning of its deployed model; the table reports per-client
// FLOPs reduction and sparsity. The paper reports large average FLOPs
// reductions with low sparsity ratios.
func InferenceAcceleration(o Options) error {
	w := o.out()
	cs := o.Scale.ClientSets[0]
	for _, arch := range o.Scale.Archs {
		fmt.Fprintf(w, "\n== inference acceleration: %s, %d clients ==\n", arch, cs.Clients)
		env := BuildCIFAREnv(o.Scale, arch, cs, o.Seed)
		s := NewAlgorithm("spatl", o.Scale, o.Seed)
		fl.Run(env, s, fl.RunOpts{Rounds: o.Scale.Rounds / 2})

		tw := table(o)
		fmt.Fprintf(tw, "client\tFLOPs reduction\tsparsity (kept params)\tdeployed params\tdeployed FLOPs\n")
		var reductions, sparsities []float64
		baseParams, baseFLOPs := env.Global.Describe()
		for ci, tr := range s.Trainers() {
			sel := tr.(*algo.SPATLTrainer).LastSelection
			if sel == nil {
				continue // never sampled
			}
			pr, tot := prune.MaskedFLOPs(env.Clients[ci].Model, sel.Masks)
			red := 1 - float64(pr)/float64(tot)
			reductions = append(reductions, red)
			sparsities = append(sparsities, sel.KeepFrac())
			// Physically extract the client's deployed sub-network: its
			// measured size confirms the analytic reduction.
			ext := prune.Extract(env.Clients[ci].Model, sel)
			p, f := ext.Describe()
			fmt.Fprintf(tw, "%d\t%.1f%%\t%.2f\t%d\t%d\n", ci, red*100, sel.KeepFrac(), p, f)
		}
		fmt.Fprintf(tw, "avg\t%.1f%%\t%.2f\t(full: %d)\t(full: %d)\n",
			stats.Mean(reductions)*100, stats.Mean(sparsities), baseParams, baseFLOPs)
		fmt.Fprintf(tw, "max\t%.1f%%\t\t\t\n", stats.Max(reductions)*100)
		tw.Flush()
	}
	return nil
}

// Table4Pruning reproduces Table IV (§V-F1): the selection agent against
// classic pruning baselines (L1-uniform, SFP, FPGM, DSA) on a network
// pruning task at a matched FLOPs budget, reporting FLOPs reduction and
// accuracy before/after fine-tuning.
func Table4Pruning(o Options) error {
	w := o.out()
	s := o.Scale
	budget := s.FLOPsBudget
	fmt.Fprintf(w, "\n== Table IV: pruning comparison (resnet20, FLOPs budget %.0f%%) ==\n", budget*100)

	// Centralized training first so pruning has signal to preserve.
	spec := specFor(s, "resnet20")
	ds := data.SynthCIFAR(cifarConfig(s), 60*s.Classes, o.Seed*3+101, o.Seed+501)
	train, val := ds.Split(0.85)
	base := models.Build(spec, o.Seed+41)
	fineTuneModel(base, train, 4, s.LR, o.Seed+43)
	baseAcc := fl.EvalAccuracy(base, val, 64)
	fmt.Fprintf(w, "unpruned accuracy: %.4f\n", baseAcc)

	uniformRatio := prune.UniformRatiosForBudget(base, budget)

	type method struct {
		name  string
		masks func(m *models.SplitModel) []prune.Mask
	}
	methods := []method{
		{"L1-uniform", func(m *models.SplitModel) []prune.Mask { return prune.L1Masks(m, uniformRatio) }},
		{"FPGM", func(m *models.SplitModel) []prune.Mask { return prune.FPGMMasks(m, uniformRatio) }},
		{"SFP", func(m *models.SplitModel) []prune.Mask {
			return prune.SFP(m, train, uniformRatio, 1, s.LR, rand.New(rand.NewSource(o.Seed+45)))
		}},
		{"DSA", func(m *models.SplitModel) []prune.Mask { return prune.DSAMasks(m, val, budget) }},
		{"SPATL agent", func(m *models.SplitModel) []prune.Mask {
			agent := rl.NewAgent(agentCfg(s, o.Seed))
			agent.Load(PretrainedAgent(s, o.Seed))
			core.FineTuneAgent(agent, m, val, budget, s.FineTuneRounds, 2, o.Seed+47)
			env := prune.NewEnv(m, val, budget)
			return prune.Select(m, rl.BestAction(agent, env)).Masks
		}},
	}

	tw := table(o)
	fmt.Fprintf(tw, "method\tFLOPs reduction\tacc (masked)\tacc (fine-tuned)\tΔacc vs unpruned\n")
	for _, meth := range methods {
		m := base.Clone()
		masks := meth.masks(m)
		sel := prune.SelectWithMasks(m, masks)
		pr, tot := prune.MaskedFLOPs(m, masks)
		red := 1 - float64(pr)/float64(tot)
		masked := fl.EvalAccuracy(prune.Extract(m, sel), val, 64)
		prune.FineTune(m, sel, train, 2, s.LR/2, rand.New(rand.NewSource(o.Seed+49)))
		after := fl.EvalAccuracy(m, val, 64)
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.4f\t%.4f\t%+.4f\n", meth.name, red*100, masked, after, after-baseAcc)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nexpected shape (paper): the agent matches or beats the baselines' accuracy at")
	fmt.Fprintln(w, "comparable FLOPs reduction, with one-shot inference instead of per-model search.")
	return nil
}
