package prune_test

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"spatl/internal/core"
	"spatl/internal/data"
	"spatl/internal/eval"
	"spatl/internal/graph"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/prune"
	"spatl/internal/rl"
)

// pretrainTask is a small instance of the agent's pre-training task
// (ResNet-56 pruning, §V-A).
func pretrainTask() (*models.SplitModel, *data.Dataset) {
	m := models.Build(models.Spec{Arch: "resnet56", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.25}, 21)
	val := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 10, H: 8, W: 8, Noise: 0.5}, 40, 101, 23)
	return m, val
}

// serialPretrain is PretrainAgent spelled Step by Step the way it ran
// before episodes were scored on extracted sub-networks, concurrently:
// per episode, observe the state, sample, and score the full-width model
// with the pruned channels zeroed at evaluation batch 64.
func serialPretrain(cfg rl.AgentConfig, m *models.SplitModel, val *data.Dataset, budget float64, rounds, batch int, seed int64) []float32 {
	agent := rl.NewAgent(cfg)
	ppo := rl.NewPPO(agent, false)
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		var ts []rl.Transition
		for i := 0; i < batch; i++ {
			st := graph.FromEncoder(m)
			mu, v := agent.Forward(st)
			action, logp := agent.Sample(mu, rng)
			sel := prune.Select(m, action)
			pr, tot := prune.MaskedFLOPs(m, sel.Masks)
			ratio := float64(pr) / float64(tot)
			var reward float64
			prune.WithMasked(m, sel, func() { reward = eval.Accuracy(m, val, 64) })
			if ratio > budget {
				reward -= 2 * (ratio - budget)
			}
			ts = append(ts, rl.Transition{State: st, Action: action, Reward: reward, LogProb: logp, Value: v})
		}
		ppo.Update(ts)
	}
	return agent.Save()
}

// TestPretrainAgentDeterministicAcrossGOMAXPROCS: the pre-trained agent
// is the same blob at GOMAXPROCS 1, 2 and 4 — however the episodes of a
// batch are spread over the cores — and the blob the serial, mask-scored
// reference produces.
func TestPretrainAgentDeterministicAcrossGOMAXPROCS(t *testing.T) {
	m, val := pretrainTask()
	cfg := rl.AgentConfig{Dim: 8, HeadHidden: 16, Seed: 31}
	want := serialPretrain(cfg, m, val, 0.6, 2, 4, 25)
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		agent, _ := core.PretrainAgent(cfg, m, val, 0.6, 2, 4, 25)
		runtime.GOMAXPROCS(prev)
		if got := agent.Save(); !slices.Equal(got, want) {
			t.Fatalf("GOMAXPROCS %d: pre-trained agent differs from the serial Step-by-Step reference", procs)
		}
	}
}

// TestEnvConcurrentSlotsHammer scores episodes on one Env from two
// goroutines at once, one slot each, and through a two-episode rollout
// on two cores; every reward must be the serial reference's. Run under
// -race it is the check that a Step only reads the shared model.
func TestEnvConcurrentSlotsHammer(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	m, val := pretrainTask()
	env := prune.NewEnv(m, val, 0.6)
	k := len(m.PrunableUnits())
	rng := rand.New(rand.NewSource(3))
	const rounds = 4
	var actions [2][rounds][]float64
	var want [2][rounds]float64
	ref := prune.NewEnv(m, val, 0.6)
	for s := range actions {
		for r := range actions[s] {
			a := make([]float64, k)
			for i := range a {
				a[i] = 0.2 + 0.8*rng.Float64()
			}
			actions[s][r], want[s][r] = a, ref.Step(0, a)
		}
	}
	var wg sync.WaitGroup
	var got [2][rounds]float64
	for s := range actions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range actions[s] {
				got[s][r] = env.Step(s, actions[s][r])
			}
		}()
	}
	wg.Wait()
	if got != want {
		t.Fatalf("concurrent slots scored %v, serially %v", got, want)
	}

	agent := rl.NewAgent(rl.AgentConfig{Dim: 8, HeadHidden: 16, Seed: 5})
	for r := 0; r < rounds; r++ {
		batch := rl.RolloutBatch(agent, env, 2, rng)
		for i, tr := range batch {
			if w := ref.Step(0, tr.Action); tr.Reward != w {
				t.Fatalf("rollout %d episode %d: reward %v, serially %v", r, i, tr.Reward, w)
			}
		}
	}
}

// TestEnvStateMatchesFreshGraph trains the Env's model for a few SGD
// steps between two observations: the graph the Env built once and
// refreshes must then equal a graph built afresh from the trained model,
// edge for edge — and the steps must have moved the weight statistics
// the refresh re-reads, or the comparison would hold vacuously.
func TestEnvStateMatchesFreshGraph(t *testing.T) {
	m, val := pretrainTask()
	env := prune.NewEnv(m, val, 0.6)
	before := slices.Clone(env.State().Edges)
	params := m.Params()
	opt := nn.NewSGD(params, 0.1, 0.9, 0)
	x, y := val.BatchInto(nil, nil, []int{0, 1, 2, 3, 4, 5, 6, 7})
	for step := 0; step < 3; step++ {
		nn.ZeroGrad(params)
		_, grad := nn.SoftmaxCrossEntropy(m.Forward(x, true), y)
		m.Backward(grad)
		opt.Step()
	}
	m.Release()
	got, want := env.State(), graph.FromEncoder(m)
	if got.NumNodes != want.NumNodes || got.NumPrunable != want.NumPrunable || len(got.Edges) != len(want.Edges) {
		t.Fatalf("refreshed graph: %d nodes, %d prunable, %d edges; fresh: %d, %d, %d",
			got.NumNodes, got.NumPrunable, len(got.Edges), want.NumNodes, want.NumPrunable, len(want.Edges))
	}
	moved := 0
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("edge %d: refreshed %+v, fresh %+v", i, got.Edges[i], want.Edges[i])
		}
		if got.Edges[i].WeightL1 != before[i].WeightL1 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the SGD steps moved no edge's weight statistics")
	}
}
