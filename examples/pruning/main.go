// Pruning with the topology-aware RL agent.
//
// The SPATL selection agent is a tiny GNN+PPO policy that reads a
// network's computational graph and emits per-layer keep ratios. This
// example pre-trains it on ResNet-56 pruning, transfers it to ResNet-20
// (fine-tuning only the MLP head, as in the paper §V-F4), and compares
// the result against uniform L1 pruning at the same FLOPs budget. Run
// with:
//
//	go run ./examples/pruning
package main

import (
	"fmt"
	"math/rand"

	"spatl/internal/core"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/prune"
	"spatl/internal/rl"
)

func main() {
	const budget = 0.6 // pruned model may use at most 60% of original FLOPs
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 6, H: 16, W: 16}, 600, 11, 12)
	train, val := ds.Split(0.85)

	// A centrally trained ResNet-20 to prune.
	spec := models.Spec{Arch: "resnet20", Classes: 6, InC: 3, H: 16, W: 16, Width: 0.25}
	m := models.Build(spec, 13)
	trainCentrally(m, train, 3)
	baseAcc := fl.EvalAccuracy(m, val, 64)
	_, baseFLOPs := m.Describe()
	fmt.Printf("unpruned ResNet-20: acc %.3f, %d FLOPs/instance\n", baseAcc, baseFLOPs)

	// Pre-train the agent on ResNet-56 pruning, then transfer.
	fmt.Println("\npre-training agent on ResNet-56 pruning task...")
	m56 := models.Build(models.Spec{Arch: "resnet56", Classes: 6, InC: 3, H: 16, W: 16, Width: 0.25}, 14)
	agent, hist := core.PretrainAgent(rl.AgentConfig{Dim: 16, HeadHidden: 32, Seed: 15}, m56, val, budget, 6, 4, 16)
	fmt.Printf("pre-training reward: first %.3f → last %.3f (agent is %0.1f KB)\n",
		hist[0].AvgReward, hist[len(hist)-1].AvgReward, float64(agent.SizeBytes())/1024)

	fmt.Println("transferring to ResNet-20 (MLP head fine-tune only)...")
	core.FineTuneAgent(agent, m, val, budget, 4, 4, 17)
	env := prune.NewEnv(m, val, budget)
	agentSel := prune.Select(m, rl.BestAction(agent, env))

	// Uniform L1 at the same budget for comparison.
	l1Sel := prune.SelectWithMasks(m, prune.L1Masks(m, prune.UniformRatiosForBudget(m, budget)))

	for _, c := range []struct {
		name string
		sel  *prune.Selection
	}{{"RL agent", agentSel}, {"uniform L1", l1Sel}} {
		pr, tot := prune.MaskedFLOPs(m, c.sel.Masks)
		acc := fl.EvalAccuracy(prune.Extract(m, c.sel), val, 64)
		// Recover accuracy with a short fine-tune of the pruned network.
		ft := m.Clone()
		ftSel := prune.SelectWithMasks(ft, c.sel.Masks)
		prune.FineTune(ft, ftSel, train, 2, 0.01, rand.New(rand.NewSource(31)))
		recovered := fl.EvalAccuracy(ft, val, 64)
		fmt.Printf("\n%s: FLOPs reduced %.1f%%, masked acc %.3f, fine-tuned acc %.3f (Δ %+0.3f)",
			c.name, 100*(1-float64(pr)/float64(tot)), acc, recovered, recovered-baseAcc)
		fmt.Printf("\n  per-layer keep ratios: ")
		for _, r := range c.sel.Ratios() {
			fmt.Printf("%.2f ", r)
		}
		fmt.Println()
	}
	fmt.Println("\nThe agent allocates non-uniform ratios from topology — deeper/wider layers")
	fmt.Println("tolerate more pruning — where L1-uniform treats every layer identically.")
}

func trainCentrally(m *models.SplitModel, train *data.Dataset, epochs int) {
	rng := rand.New(rand.NewSource(1))
	params := m.Params()
	opt := nn.NewSGD(params, 0.02, 0.9, 0)
	for e := 0; e < epochs; e++ {
		for _, idx := range train.Batches(rng, 32) {
			x, y := train.Batch(idx)
			nn.ZeroGrad(params)
			out := m.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(out, y)
			m.Backward(grad)
			opt.Step()
		}
	}
}
