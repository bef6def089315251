package rl

import (
	"math"
	"math/rand"

	"spatl/internal/graph"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// AgentConfig sets the agent's hyperparameters. Defaults follow §V-A of
// the paper: PPO clip 0.2, action standard deviation 0.5, discount 0.99,
// Adam with lr 1e-4.
type AgentConfig struct {
	Dim        int     // GNN hidden dimension (default 16)
	Rounds     int     // message-passing rounds (default 2)
	HeadHidden int     // actor/critic MLP hidden width (default 32)
	MinRatio   float64 // smallest selectable keep-ratio (default 0.2)
	Sigma      float64 // Gaussian policy std (default 0.5)
	Clip       float64 // PPO clip ε (default 0.2)
	LR         float64 // Adam learning rate (default 1e-4)
	Seed       int64
}

// WithDefaults fills zero fields.
func (c AgentConfig) WithDefaults() AgentConfig {
	if c.Dim == 0 {
		c.Dim = 16
	}
	if c.Rounds == 0 {
		c.Rounds = 2
	}
	if c.HeadHidden == 0 {
		c.HeadHidden = 32
	}
	if c.MinRatio == 0 {
		c.MinRatio = 0.2
	}
	if c.Sigma == 0 {
		c.Sigma = 0.5
	}
	if c.Clip == 0 {
		c.Clip = 0.2
	}
	if c.LR == 0 {
		c.LR = 1e-4
	}
	return c
}

// Agent is the salient-parameter selection agent: GNN topology encoder
// plus actor (per-prunable-layer keep ratios) and critic (state value)
// heads.
type Agent struct {
	Cfg AgentConfig

	gnn    *GNN
	actor1 *nn.Linear
	actorR *nn.ReLU
	actor2 *nn.Linear
	crit1  *nn.Linear
	critR  *nn.ReLU
	crit2  *nn.Linear

	fc agentCache // forward caches, refilled by every Forward
}

// agentCache holds one Forward's inputs and outputs for Backward, refilled
// like the GNN's (gnnCache).
type agentCache struct {
	g        *graph.Graph
	actIn    *tensor.Tensor // (K, 2D+F)
	actRaw   *tensor.Tensor // (K, 1) pre-sigmoid
	pooled   *tensor.Tensor // (1, D)
	prunable []int          // edge index per prunable unit

	dRaw, dVOut, dH *tensor.Tensor // Backward's gradients
}

// NewAgent constructs an agent.
func NewAgent(cfg AgentConfig) *Agent {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	a := &Agent{Cfg: cfg}
	a.gnn = NewGNN(cfg.Dim, cfg.Rounds, rng)
	in := 2*cfg.Dim + graph.FeatureDim
	a.actor1 = nn.NewLinear("actor.fc1", in, cfg.HeadHidden, rng)
	a.actorR = nn.NewReLU("actor.relu")
	a.actor2 = nn.NewLinear("actor.fc2", cfg.HeadHidden, 1, rng)
	a.crit1 = nn.NewLinear("critic.fc1", cfg.Dim, cfg.HeadHidden, rng)
	a.critR = nn.NewReLU("critic.relu")
	a.crit2 = nn.NewLinear("critic.fc2", cfg.HeadHidden, 1, rng)
	return a
}

// Params returns all trainable parameters (GNN + heads).
func (a *Agent) Params() []*nn.Param {
	ps := a.gnn.Params()
	ps = append(ps, a.HeadParams()...)
	return ps
}

// HeadParams returns only the MLP head parameters — the part fine-tuned
// on clients (§V-A: "We only update the MLP's parameter when
// fine-tuning").
func (a *Agent) HeadParams() []*nn.Param {
	ps := a.actor1.Params()
	ps = append(ps, a.actor2.Params()...)
	ps = append(ps, a.crit1.Params()...)
	ps = append(ps, a.crit2.Params()...)
	return ps
}

// SizeBytes reports the serialized agent size (float32 weights) — the
// footprint shipped to edge clients.
func (a *Agent) SizeBytes() int { return 4 * nn.ParamCount(a.Params()) }

// Forward evaluates the policy on a graph state, producing the per-layer
// keep-ratio means μ ∈ [MinRatio, 1] and the critic value estimate.
// mu is a fresh slice, the caller's to keep.
func (a *Agent) Forward(g *graph.Graph) (mu []float64, value float64) {
	h := a.gnn.Forward(g)
	c := &a.fc
	c.g = g
	c.prunable = resize(c.prunable, g.NumPrunable)
	for i := range g.Edges {
		if pi := g.Edges[i].PrunableIdx; pi >= 0 {
			c.prunable[pi] = i
		}
	}
	k := len(c.prunable)
	d := a.Cfg.Dim
	in := 2*d + graph.FeatureDim

	c.actIn = zeroed(c.actIn, maxInt(k, 1), in)
	feat := a.gnn.cache.feat.Data
	for i, ei := range c.prunable {
		e := &g.Edges[ei]
		row := c.actIn.Data[i*in:]
		copy(row[:d], h.Data[e.Src*d:(e.Src+1)*d])
		copy(row[d:2*d], h.Data[e.Dst*d:(e.Dst+1)*d])
		copy(row[2*d:in], feat[ei*graph.FeatureDim:(ei+1)*graph.FeatureDim])
	}
	c.actRaw = a.actor2.Forward(a.actorR.Forward(a.actor1.Forward(c.actIn, true), true), true)
	mu = make([]float64, k)
	for i := 0; i < k; i++ {
		s := 1 / (1 + math.Exp(-float64(c.actRaw.Data[i])))
		mu[i] = a.Cfg.MinRatio + (1-a.Cfg.MinRatio)*s
	}

	// Critic over mean-pooled node states.
	n := g.NumNodes
	c.pooled = zeroed(c.pooled, 1, d)
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			c.pooled.Data[j] += h.Data[v*d+j]
		}
	}
	inv := float32(1 / float64(n))
	for j := range c.pooled.Data {
		c.pooled.Data[j] *= inv
	}
	vOut := a.crit2.Forward(a.critR.Forward(a.crit1.Forward(c.pooled, true), true), true)
	return mu, float64(vOut.Data[0])
}

// resize returns s with length n, over s's array when it is large
// enough (contents unspecified).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Backward propagates loss gradients w.r.t. the actor means (dMu) and
// the critic value (dV) through heads and GNN, accumulating parameter
// gradients. Must follow Forward on the same state.
func (a *Agent) Backward(dMu []float64, dV float64) {
	c := &a.fc
	if c.g == nil {
		panic("rl: Agent.Backward before Forward")
	}
	d := a.Cfg.Dim
	k := len(c.prunable)

	// Actor: dμ/draw = (1−MinRatio)·s·(1−s).
	c.dRaw = zeroed(c.dRaw, maxInt(k, 1), 1)
	dRaw := c.dRaw
	for i := 0; i < k; i++ {
		s := 1 / (1 + math.Exp(-float64(c.actRaw.Data[i])))
		dRaw.Data[i] = float32(dMu[i] * (1 - a.Cfg.MinRatio) * s * (1 - s))
	}
	dActIn := a.actor1.Backward(a.actorR.Backward(a.actor2.Backward(dRaw)))

	// Critic.
	c.dVOut = zeroed(c.dVOut, 1, 1)
	dVOut := c.dVOut
	dVOut.Data[0] = float32(dV)
	dPooled := a.crit1.Backward(a.critR.Backward(a.crit2.Backward(dVOut)))

	// Assemble dH: pooled gradient spreads 1/N to every node; actor
	// input gradient scatters to src/dst node rows.
	n := c.g.NumNodes
	c.dH = zeroed(c.dH, n, d)
	dH := c.dH
	inv := float32(1 / float64(n))
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			dH.Data[v*d+j] += dPooled.Data[j] * inv
		}
	}
	in := 2*d + graph.FeatureDim
	for i, ei := range c.prunable {
		e := &c.g.Edges[ei]
		row := dActIn.Data[i*in:]
		for j := 0; j < d; j++ {
			dH.Data[e.Src*d+j] += row[j]
			dH.Data[e.Dst*d+j] += row[d+j]
		}
	}
	a.gnn.Backward(dH)
}

// Sample draws an action from the Gaussian policy around mu, clipped to
// [MinRatio, 1], and returns it with its log-probability.
func (a *Agent) Sample(mu []float64, rng *rand.Rand) (action []float64, logp float64) {
	action = make([]float64, len(mu))
	for i, m := range mu {
		x := m + a.Cfg.Sigma*rng.NormFloat64()
		if x < a.Cfg.MinRatio {
			x = a.Cfg.MinRatio
		}
		if x > 1 {
			x = 1
		}
		action[i] = x
	}
	return action, a.LogProb(mu, action)
}

// LogProb returns the Gaussian log-density of action under means mu
// (clipping treated as density at the boundary value, the common PPO
// simplification).
func (a *Agent) LogProb(mu, action []float64) float64 {
	s2 := a.Cfg.Sigma * a.Cfg.Sigma
	lp := 0.0
	for i := range mu {
		d := action[i] - mu[i]
		lp += -d*d/(2*s2) - math.Log(a.Cfg.Sigma*math.Sqrt(2*math.Pi))
	}
	return lp
}

// Save serializes all agent weights.
func (a *Agent) Save() []float32 { return nn.FlattenParams(a.Params()) }

// Load restores weights produced by Save.
func (a *Agent) Load(flat []float32) { nn.UnflattenParams(a.Params(), flat) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
