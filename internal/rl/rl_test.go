package rl

import (
	"math"
	"math/rand"
	"testing"

	"spatl/internal/graph"
	"spatl/internal/models"
	"spatl/internal/nn"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	spec := models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.25}
	return graph.FromEncoder(models.Build(spec, 1))
}

func TestAgentForwardShapes(t *testing.T) {
	g := testGraph(t)
	a := NewAgent(AgentConfig{Seed: 1})
	mu, v := a.Forward(g)
	if len(mu) != g.NumPrunable {
		t.Fatalf("mu length %d, want %d", len(mu), g.NumPrunable)
	}
	for i, m := range mu {
		if m < a.Cfg.MinRatio-1e-9 || m > 1+1e-9 {
			t.Fatalf("mu[%d] = %v outside [%v,1]", i, m, a.Cfg.MinRatio)
		}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("value %v not finite", v)
	}
}

func TestAgentDeterministicForward(t *testing.T) {
	g := testGraph(t)
	a := NewAgent(AgentConfig{Seed: 2})
	mu1, v1 := a.Forward(g)
	mu2, v2 := a.Forward(g)
	if v1 != v2 {
		t.Fatal("value must be deterministic")
	}
	for i := range mu1 {
		if mu1[i] != mu2[i] {
			t.Fatal("mu must be deterministic")
		}
	}
}

func TestSampleWithinBounds(t *testing.T) {
	g := testGraph(t)
	a := NewAgent(AgentConfig{Seed: 3})
	mu, _ := a.Forward(g)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		action, logp := a.Sample(mu, rng)
		for _, x := range action {
			if x < a.Cfg.MinRatio || x > 1 {
				t.Fatalf("action %v out of bounds", x)
			}
		}
		if math.IsNaN(logp) {
			t.Fatal("logp NaN")
		}
	}
}

func TestLogProbPeaksAtMean(t *testing.T) {
	a := NewAgent(AgentConfig{Seed: 5})
	mu := []float64{0.5, 0.7}
	atMean := a.LogProb(mu, []float64{0.5, 0.7})
	off := a.LogProb(mu, []float64{0.9, 0.3})
	if atMean <= off {
		t.Fatalf("logp at mean %v must exceed off-mean %v", atMean, off)
	}
}

// Numerically validate the agent's full backward pass: for loss
// L = Σ cᵢ·μᵢ + d·V, the analytic parameter gradients must match finite
// differences.
func TestAgentGradientsNumeric(t *testing.T) {
	g := testGraph(t)
	a := NewAgent(AgentConfig{Seed: 6, Dim: 8, HeadHidden: 8})
	k := g.NumPrunable
	coef := make([]float64, k)
	rng := rand.New(rand.NewSource(7))
	for i := range coef {
		coef[i] = rng.NormFloat64()
	}
	dcoef := rng.NormFloat64()

	lossOf := func() float64 {
		mu, v := a.Forward(g)
		l := dcoef * v
		for i, m := range mu {
			l += coef[i] * m
		}
		return l
	}

	params := a.Params()
	nn.ZeroGrad(params)
	mu, _ := a.Forward(g)
	_ = mu
	a.Backward(coef, dcoef)

	const eps = 1e-3
	checked := 0
	for _, p := range params {
		for trial := 0; trial < 2; trial++ {
			j := rng.Intn(p.W.Len())
			orig := p.W.Data[j]
			p.W.Data[j] = orig + eps
			lp := lossOf()
			p.W.Data[j] = orig - eps
			lm := lossOf()
			p.W.Data[j] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(p.G.Data[j])
			if math.Abs(num-ana) > 5e-2*(1+math.Abs(num)) {
				t.Fatalf("param %s grad[%d]: numeric %v analytic %v", p.Name, j, num, ana)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no gradients checked")
	}
}

// toyEnv rewards actions close to a fixed target vector — PPO must be
// able to shift the policy mean toward it.
type toyEnv struct {
	g      *graph.Graph
	target float64
}

func (e *toyEnv) State() *graph.Graph { return e.g }
func (e *toyEnv) Step(_ int, action []float64) float64 {
	var d float64
	for _, a := range action {
		d += math.Abs(a - e.target)
	}
	return 1 - d/float64(len(action))
}

func TestPPOImprovesToyReward(t *testing.T) {
	g := testGraph(t)
	env := &toyEnv{g: g, target: 0.9}
	a := NewAgent(AgentConfig{Seed: 8, LR: 5e-3, Sigma: 0.3})
	ppo := NewPPO(a, false)
	rng := rand.New(rand.NewSource(9))
	res := Train(ppo, env, 30, 8, rng)
	first := res[0].AvgReward
	var lastAvg float64
	for _, r := range res[len(res)-5:] {
		lastAvg += r.AvgReward
	}
	lastAvg /= 5
	if lastAvg <= first+0.02 {
		t.Fatalf("PPO did not improve: first %.4f, final %.4f", first, lastAvg)
	}
	// The greedy action should be pulled toward the target.
	best := BestAction(a, env)
	var mean float64
	for _, b := range best {
		mean += b
	}
	mean /= float64(len(best))
	if mean < 0.6 {
		t.Fatalf("policy mean %.3f not moved toward target 0.9", mean)
	}
}

func TestPPOHeadOnlyFreezesGNN(t *testing.T) {
	g := testGraph(t)
	env := &toyEnv{g: g, target: 0.8}
	a := NewAgent(AgentConfig{Seed: 10, LR: 5e-3})
	gnnBefore := nn.FlattenParams(a.gnn.Params())
	headBefore := nn.FlattenParams(a.HeadParams())
	ppo := NewPPO(a, true)
	Train(ppo, env, 3, 4, rand.New(rand.NewSource(11)))
	gnnAfter := nn.FlattenParams(a.gnn.Params())
	for i := range gnnBefore {
		if gnnBefore[i] != gnnAfter[i] {
			t.Fatal("head-only fine-tuning must not modify the GNN")
		}
	}
	headAfter := nn.FlattenParams(a.HeadParams())
	changed := false
	for i := range headBefore {
		if headBefore[i] != headAfter[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("head parameters must change during fine-tuning")
	}
}

func TestAgentSaveLoadRoundTrip(t *testing.T) {
	g := testGraph(t)
	a := NewAgent(AgentConfig{Seed: 12})
	mu1, v1 := a.Forward(g)
	blob := a.Save()
	b := NewAgent(AgentConfig{Seed: 99})
	b.Load(blob)
	mu2, v2 := b.Forward(g)
	if v1 != v2 {
		t.Fatal("loaded agent value differs")
	}
	for i := range mu1 {
		if mu1[i] != mu2[i] {
			t.Fatal("loaded agent policy differs")
		}
	}
}

func TestAgentTransfersAcrossArchitectures(t *testing.T) {
	// The same agent must run on graphs of different models — the
	// transferability property (§V-F4). ResNet-56 → ResNet-18.
	a := NewAgent(AgentConfig{Seed: 13})
	g56 := graph.FromEncoder(models.Build(models.Spec{Arch: "resnet56", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.25}, 1))
	g18 := graph.FromEncoder(models.Build(models.Spec{Arch: "resnet18", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.25}, 1))
	mu56, _ := a.Forward(g56)
	mu18, _ := a.Forward(g18)
	if len(mu56) != g56.NumPrunable || len(mu18) != g18.NumPrunable {
		t.Fatal("agent must adapt its action dimension to the graph")
	}
}

func TestSizeBytesSmall(t *testing.T) {
	a := NewAgent(AgentConfig{Seed: 14})
	// The paper reports a ~26KB agent; ours must also be edge-friendly
	// (well under 1MB).
	if a.SizeBytes() > 1<<20 {
		t.Fatalf("agent size %dB too large for edge deployment", a.SizeBytes())
	}
	if a.SizeBytes() <= 0 {
		t.Fatal("agent size must be positive")
	}
}

func TestUpdateEmptyBatch(t *testing.T) {
	a := NewAgent(AgentConfig{Seed: 15})
	ppo := NewPPO(a, false)
	if loss := ppo.Update(nil); loss != 0 {
		t.Fatalf("empty batch loss %v", loss)
	}
}

func TestBestActionDeterministic(t *testing.T) {
	g := testGraph(t)
	a := NewAgent(AgentConfig{Seed: 20})
	env := &toyEnv{g: g, target: 0.5}
	b1 := BestAction(a, env)
	b2 := BestAction(a, env)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("BestAction must be deterministic")
		}
	}
}

func TestAgentHandlesGraphWithoutPrunableEdges(t *testing.T) {
	// An MLP has no prunable convolutions; the agent must still produce
	// a (zero-length) action and a finite value.
	spec := models.Spec{Arch: "mlp", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.5}
	g := graph.FromEncoder(models.Build(spec, 1))
	if g.NumPrunable != 0 {
		t.Fatalf("mlp should have 0 prunable edges, got %d", g.NumPrunable)
	}
	a := NewAgent(AgentConfig{Seed: 21})
	mu, v := a.Forward(g)
	if len(mu) != 0 {
		t.Fatalf("expected empty action, got %d", len(mu))
	}
	if math.IsNaN(v) {
		t.Fatal("value NaN")
	}
}

// Property: the PPO objective's clipped branch bounds the update — after
// Update, replaying the same state gives a ratio within a loose band
// around [1−ε, 1+ε] for actions in the batch (policies cannot run away
// in one update).
func TestPPOClipLimitsPolicyShift(t *testing.T) {
	g := testGraph(t)
	a := NewAgent(AgentConfig{Seed: 22, LR: 5e-3, Sigma: 0.4})
	ppo := NewPPO(a, false)
	rng := rand.New(rand.NewSource(23))
	env := &toyEnv{g: g, target: 0.9}
	batch := RolloutBatch(a, env, 6, rng)
	ppo.Update(batch)
	for _, tr := range batch {
		mu, _ := a.Forward(tr.State)
		ratio := math.Exp(a.LogProb(mu, tr.Action) - tr.LogProb)
		// Update runs several epochs, so the total shift can exceed one
		// clip band, but clipping must keep it orders of magnitude away
		// from a runaway (e^{±10}-style) jump.
		if ratio > 5 || ratio < 0.2 {
			t.Fatalf("policy ratio %.3f after one update — clipping failed to bound the shift", ratio)
		}
	}
}

func TestTrainResultLengthsAndFiniteness(t *testing.T) {
	g := testGraph(t)
	a := NewAgent(AgentConfig{Seed: 24})
	ppo := NewPPO(a, false)
	res := Train(ppo, &toyEnv{g: g, target: 0.5}, 4, 3, rand.New(rand.NewSource(25)))
	if len(res) != 4 {
		t.Fatalf("rounds = %d", len(res))
	}
	for i, r := range res {
		if r.Round != i || math.IsNaN(r.AvgReward) || math.IsNaN(r.Loss) {
			t.Fatalf("bad result %+v", r)
		}
	}
}

// TestAgentCacheMatchesFreshAcrossGraphs runs one agent on graph A, then
// on B (another architecture, other sizes), then on A again: every
// forward refills the caches the last one left, and must equal a fresh
// agent's forward on the same graph exactly.
func TestAgentCacheMatchesFreshAcrossGraphs(t *testing.T) {
	cfg := AgentConfig{Seed: 31}
	ga := testGraph(t)
	gb := graph.FromEncoder(models.Build(models.Spec{Arch: "vgg11", Classes: 10, InC: 3, H: 32, W: 32, Width: 0.25}, 2))
	a := NewAgent(cfg)
	for i, g := range []*graph.Graph{ga, gb, ga} {
		mu, v := a.Forward(g)
		wantMu, wantV := NewAgent(cfg).Forward(g)
		if v != wantV {
			t.Fatalf("forward %d: value %v, a fresh agent's %v", i, v, wantV)
		}
		if len(mu) != len(wantMu) {
			t.Fatalf("forward %d: %d means, a fresh agent's %d", i, len(mu), len(wantMu))
		}
		for j := range mu {
			if mu[j] != wantMu[j] {
				t.Fatalf("forward %d: mu[%d] = %v, a fresh agent's %v", i, j, mu[j], wantMu[j])
			}
		}
	}
}

// TestPPOUpdateAfterReusedForwardsMatchesFresh updates two copies of one
// agent — all parameters, so the GNN's backward runs too — on the same
// batch: one whose caches a forward on another architecture's graph has
// just resized, one fresh. Two updates in a row must leave both with the
// same parameters bit for bit.
func TestPPOUpdateAfterReusedForwardsMatchesFresh(t *testing.T) {
	cfg := AgentConfig{Seed: 32, LR: 1e-2}
	ga := testGraph(t)
	gb := graph.FromEncoder(models.Build(models.Spec{Arch: "resnet56", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.25}, 3))
	reused, fresh := NewAgent(cfg), NewAgent(cfg)
	reused.Forward(gb)
	reused.Forward(ga)
	reused.Forward(gb)
	mu, v := NewAgent(cfg).Forward(ga)
	rng := rand.New(rand.NewSource(33))
	var batch []Transition
	for i := 0; i < 3; i++ {
		action, logp := fresh.Sample(mu, rng)
		batch = append(batch, Transition{State: ga, Action: action, Reward: rng.Float64(), LogProb: logp, Value: v})
	}
	pr, pf := NewPPO(reused, false), NewPPO(fresh, false)
	for u := 0; u < 2; u++ {
		lr, lf := pr.Update(batch), pf.Update(batch)
		if lr != lf {
			t.Fatalf("update %d: loss %v after reused forwards, %v fresh", u, lr, lf)
		}
		wr, wf := reused.Save(), fresh.Save()
		for j := range wf {
			if math.Float32bits(wr[j]) != math.Float32bits(wf[j]) {
				t.Fatalf("update %d: parameter %d is %v after reused forwards, %v fresh", u, j, wr[j], wf[j])
			}
		}
	}
}

// TestPPOResetMatchesFresh fine-tunes two copies of one agent head-only
// over two sessions of Train: one keeps its PPO and resets it between
// sessions, one builds a new PPO per session. Both must end with the
// same parameters bit for bit.
func TestPPOResetMatchesFresh(t *testing.T) {
	cfg := AgentConfig{Seed: 34, LR: 1e-2}
	env := &toyEnv{g: testGraph(t), target: 0.7}
	kept, fresh := NewAgent(cfg), NewAgent(cfg)
	rk, rf := rand.New(rand.NewSource(35)), rand.New(rand.NewSource(35))
	ppo := NewPPO(kept, true)
	for session := 0; session < 2; session++ {
		if session > 0 {
			ppo.Reset()
		}
		Train(ppo, env, 1, 3, rk)
		Train(NewPPO(fresh, true), env, 1, 3, rf)
		wk, wf := kept.Save(), fresh.Save()
		for j := range wf {
			if math.Float32bits(wk[j]) != math.Float32bits(wf[j]) {
				t.Fatalf("session %d: parameter %d is %v with a reset PPO, %v with a new one", session, j, wk[j], wf[j])
			}
		}
	}
}
