package rl

import (
	"math"
	"math/rand"

	"spatl/internal/graph"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// Transition is one agent-environment interaction: the pruning task is a
// contextual bandit (one decision per episode — the full sparsity
// vector), so no bootstrapping across steps is needed and the advantage
// is reward − value.
type Transition struct {
	State   *graph.Graph
	Action  []float64
	Reward  float64
	LogProb float64 // log π_old(a|s)
	Value   float64 // V_old(s)
}

// PPO trains an Agent with the clipped surrogate objective (eq. 8 of the
// paper). When HeadOnly is set, only the MLP heads are updated — the
// client-side fine-tuning mode.
type PPO struct {
	Agent    *Agent
	Epochs   int // optimization epochs per batch (default 4)
	HeadOnly bool

	opt    *nn.Adam
	allP   []*nn.Param
	trainP []*nn.Param
	dMu    []float64 // Update's per-transition ∂L/∂μ
}

// NewPPO constructs a PPO trainer over the agent.
func NewPPO(agent *Agent, headOnly bool) *PPO {
	p := &PPO{Agent: agent, Epochs: 4, HeadOnly: headOnly}
	p.allP = agent.Params()
	if headOnly {
		p.trainP = agent.HeadParams()
	} else {
		p.trainP = p.allP
	}
	p.opt = nn.NewAdam(p.trainP, agent.Cfg.LR)
	return p
}

// Reset restarts the optimizer, making p the trainer a fresh NewPPO over
// the same agent would be — for a caller that keeps one PPO across
// separate fine-tuning sessions.
func (p *PPO) Reset() { p.opt.Reset() }

// Update runs PPO optimization epochs over a batch of transitions and
// returns the mean clipped-surrogate+value loss of the final epoch.
func (p *PPO) Update(batch []Transition) float64 {
	if len(batch) == 0 {
		return 0
	}
	// Advantages (reward − old value), normalized across the batch.
	advs := make([]float64, len(batch))
	var mean float64
	for i, t := range batch {
		advs[i] = t.Reward - t.Value
		mean += advs[i]
	}
	mean /= float64(len(advs))
	var variance float64
	for _, a := range advs {
		variance += (a - mean) * (a - mean)
	}
	std := math.Sqrt(variance/float64(len(advs))) + 1e-8
	for i := range advs {
		advs[i] = (advs[i] - mean) / std
	}

	clip := p.Agent.Cfg.Clip
	s2 := p.Agent.Cfg.Sigma * p.Agent.Cfg.Sigma
	var lastLoss float64
	for epoch := 0; epoch < p.Epochs; epoch++ {
		var total float64
		for i, t := range batch {
			nn.ZeroGrad(p.allP)
			mu, v := p.Agent.Forward(t.State)
			logp := p.Agent.LogProb(mu, t.Action)
			ratio := math.Exp(logp - t.LogProb)
			adv := advs[i]

			unclipped := ratio * adv
			rclip := ratio
			if rclip < 1-clip {
				rclip = 1 - clip
			} else if rclip > 1+clip {
				rclip = 1 + clip
			}
			clipped := rclip * adv

			// Surrogate objective takes the min; its gradient flows only
			// through the unclipped branch, and only when that branch is
			// the active minimum.
			// When the clipped branch is strictly smaller it is the active
			// min and is constant in the policy (rclip ≠ ratio there), so
			// the gradient is zero; otherwise the gradient flows through
			// the unclipped branch.
			var dObjDLogp float64
			obj := unclipped
			if clipped < unclipped {
				obj = clipped
			} else {
				dObjDLogp = ratio * adv
			}

			vErr := v - t.Reward
			loss := -obj + 0.5*vErr*vErr
			total += loss

			// dL/dμᵢ = −dObj/dlogp · ∂logp/∂μᵢ ; ∂logp/∂μᵢ = (aᵢ−μᵢ)/σ².
			p.dMu = resize(p.dMu, len(mu))
			dMu := p.dMu
			for j := range mu {
				dMu[j] = -dObjDLogp * (t.Action[j] - mu[j]) / s2
			}
			p.Agent.Backward(dMu, vErr)
			p.opt.Step()
		}
		lastLoss = total / float64(len(batch))
	}
	return lastLoss
}

// Environment is a one-step decision task for the agent: observe the
// model's computational graph, emit per-layer keep ratios, receive the
// resulting reward (validation accuracy of the selected sub-network,
// eq. 7). A Step does not change the state.
type Environment interface {
	// State returns the current graph observation.
	State() *graph.Graph
	// Step scores the action and returns its reward. slot names the
	// episode's place in a rollout batch (0, 1, …): calls with distinct
	// slots may run concurrently.
	Step(slot int, action []float64) float64
}

// RolloutBatch collects n transitions from env under the current policy.
// The state is observed once and the n actions are sampled from rng one
// after another; the episodes are then scored concurrently, episode i in
// slot i, so the batch is the same whatever the core count.
func RolloutBatch(agent *Agent, env Environment, n int, rng *rand.Rand) []Transition {
	st := env.State()
	mu, v := agent.Forward(st)
	batch := make([]Transition, n)
	for i := range batch {
		action, logp := agent.Sample(mu, rng)
		batch[i] = Transition{State: st, Action: action, LogProb: logp, Value: v}
	}
	tensor.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			batch[i].Reward = env.Step(i, batch[i].Action)
		}
	})
	return batch
}

// TrainResult records one PPO update round.
type TrainResult struct {
	Round     int
	AvgReward float64
	Loss      float64
}

// Train alternates rollout and PPO update for the given number of
// rounds, returning the per-round average rewards — the curves of
// Fig. 6 in the paper.
func Train(ppo *PPO, env Environment, rounds, batchSize int, rng *rand.Rand) []TrainResult {
	out := make([]TrainResult, 0, rounds)
	for r := 0; r < rounds; r++ {
		batch := RolloutBatch(ppo.Agent, env, batchSize, rng)
		var avg float64
		for _, t := range batch {
			avg += t.Reward
		}
		avg /= float64(len(batch))
		loss := ppo.Update(batch)
		out = append(out, TrainResult{Round: r, AvgReward: avg, Loss: loss})
	}
	return out
}

// BestAction returns the policy mean (the greedy action) for the current
// environment state — used at deployment time for one-shot selection.
func BestAction(agent *Agent, env Environment) []float64 {
	mu, _ := agent.Forward(env.State())
	return mu
}
