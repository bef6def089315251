package core

import (
	"math"
	"math/rand"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/rl"
)

// spatlEnv builds a compact but real SPATL environment: a ResNet-20 at
// tiny width on the synthetic CIFAR task, Dirichlet non-IID split.
func spatlEnv(t testing.TB, numClients int, seed int64) *fl.Env {
	t.Helper()
	cfg := fl.Config{
		NumClients: numClients, SampleRatio: 1, LocalEpochs: 1, BatchSize: 16,
		LR: 0.02, Momentum: 0.9, Seed: seed,
	}
	spec := models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8, Noise: 0.25}, numClients*60, 31, 32)
	parts := data.DirichletPartition(ds.Y, 4, numClients, 0.5, 10, rand.New(rand.NewSource(seed+5)))
	var cd []fl.ClientData
	for _, p := range parts {
		sub := ds.Subset(p)
		tr, va := sub.Split(0.8)
		cd = append(cd, fl.ClientData{Train: tr, Val: va})
	}
	return fl.NewEnv(spec, cfg, cd)
}

// New builds SPATL the way every algorithm is built: an fl.Federation
// over its core pair. (Exported so the package's external tests share
// it.)
func New(opts Options) *fl.Federation {
	return fl.NewAlgorithm("spatl",
		func(g *models.SplitModel, cfg algo.Config) *algo.SPATLAggregator {
			return algo.NewSPATLAggregator(g, opts, cfg)
		},
		func(c *fl.Client, cfg algo.Config) *algo.SPATLTrainer {
			return algo.NewSPATLTrainer(c, opts, cfg)
		})
}

func fastOpts() Options {
	return Options{
		FineTuneRounds:   1,
		FineTuneEpisodes: 2,
		AgentCfg:         rl.AgentConfig{Dim: 8, HeadHidden: 8, Seed: 3},
	}
}

func TestSPATLLearnsAboveChance(t *testing.T) {
	env := spatlEnv(t, 3, 1)
	res := fl.Run(env, New(fastOpts()), fl.RunOpts{Rounds: 5})
	if res.BestAcc() < 0.35 {
		t.Fatalf("SPATL best accuracy %.3f, want above chance 0.25", res.BestAcc())
	}
}

func TestSPATLPerRoundUplinkComparableToFedAvg(t *testing.T) {
	// Table I relationship: although SPATL carries gradient-control
	// deltas (which alone would double the payload, as in SCAFFOLD),
	// salient selection keeps its per-round uplink in FedAvg's ballpark
	// (the paper's own ratios span 1.0×–1.46× across models) and well
	// below SCAFFOLD's 2×.
	upOf := func(alg *fl.Federation) int64 {
		env := spatlEnv(t, 3, 2)
		res := fl.Run(env, alg, fl.RunOpts{Rounds: 2})
		return res.Records[len(res.Records)-1].CumUp
	}
	upS := upOf(New(fastOpts()))
	upF := upOf(fl.NewAlgorithm("fedavg", algo.NewFedAvgAggregator, algo.NewFedAvgTrainer))
	upSc := upOf(fl.NewAlgorithm("scaffold", algo.NewSCAFFOLDAggregator, algo.NewSCAFFOLDTrainer))
	if ratio := float64(upS) / float64(upF); ratio > 1.6 {
		t.Fatalf("SPATL/FedAvg uplink ratio %.2f, want ≤ 1.6", ratio)
	}
	if float64(upS) >= 0.85*float64(upSc) {
		t.Fatalf("SPATL uplink %d should be well below SCAFFOLD's %d", upS, upSc)
	}
}

func TestSPATLKeepsPredictorsHeterogeneous(t *testing.T) {
	env := spatlEnv(t, 3, 3)
	fl.Run(env, New(fastOpts()), fl.RunOpts{Rounds: 3})
	// After training on different non-IID shards, predictors must differ.
	f0 := nn.FlattenParams(env.Clients[0].Model.PredictorParams())
	f1 := nn.FlattenParams(env.Clients[1].Model.PredictorParams())
	same := true
	for i := range f0 {
		if f0[i] != f1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("client predictors must be heterogeneous after SPATL training")
	}
}

func TestDisableTransferSharesWholeModel(t *testing.T) {
	env := spatlEnv(t, 3, 4)
	opts := fastOpts()
	opts.DisableTransfer = true
	opts.DisableSelection = true
	fl.Run(env, New(opts), fl.RunOpts{Rounds: 2})
	// With transfer disabled, evaluation installs the full global state
	// into the client models, so predictors agree.
	s := New(opts)
	_ = s
	g := env.Global.State(models.ScopeAll)
	env.Clients[0].Model.SetState(models.ScopeAll, g)
	env.Clients[1].Model.SetState(models.ScopeAll, g)
	f0 := nn.FlattenParams(env.Clients[0].Model.PredictorParams())
	f1 := nn.FlattenParams(env.Clients[1].Model.PredictorParams())
	for i := range f0 {
		if f0[i] != f1[i] {
			t.Fatal("uniform-model mode must produce identical predictors")
		}
	}
}

func TestDisableSelectionUploadsFullEncoder(t *testing.T) {
	run := func(disable bool) int64 {
		env := spatlEnv(t, 3, 5)
		opts := fastOpts()
		opts.DisableSelection = disable
		res := fl.Run(env, New(opts), fl.RunOpts{Rounds: 2})
		return res.Records[len(res.Records)-1].CumUp
	}
	withSel := run(false)
	withoutSel := run(true)
	if withSel >= withoutSel {
		t.Fatalf("selection should reduce uplink: with %d, without %d", withSel, withoutSel)
	}
}

func TestDisableGradControlDropsControlPayload(t *testing.T) {
	run := func(disable bool) int64 {
		env := spatlEnv(t, 3, 6)
		opts := fastOpts()
		opts.DisableSelection = true // isolate the control payload effect
		opts.DisableGradControl = disable
		res := fl.Run(env, New(opts), fl.RunOpts{Rounds: 1})
		return res.Records[len(res.Records)-1].CumUp
	}
	with := run(false)
	without := run(true)
	if without >= with {
		t.Fatalf("disabling gradient control must shrink the payload: with %d, without %d", with, without)
	}
	// With full selection, the control delta is roughly encoder-sized:
	// expect close to a 2× relationship.
	ratio := float64(with) / float64(without)
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("control payload ratio %.2f, want ≈2", ratio)
	}
}

func TestSelectionsRecordedPerClient(t *testing.T) {
	env := spatlEnv(t, 3, 7)
	s := New(fastOpts())
	fl.Run(env, s, fl.RunOpts{Rounds: 2})
	for ci, tr := range s.Trainers() {
		sel := tr.(*algo.SPATLTrainer).LastSelection
		if sel == nil {
			t.Fatalf("no selection recorded for client %d", ci)
		}
		if sel.KeepFrac() <= 0 || sel.KeepFrac() > 1 {
			t.Fatalf("client %d keep fraction %v", ci, sel.KeepFrac())
		}
	}
}

func TestServerControlVariateMoves(t *testing.T) {
	env := spatlEnv(t, 3, 8)
	s := New(fastOpts())
	fl.Run(env, s, fl.RunOpts{Rounds: 2})
	var nonzero int
	for _, v := range s.Aggregator().(*algo.SPATLAggregator).ControlVariate() {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("server control variate never updated")
	}
}

func TestColdStartTrainsOnlyPredictor(t *testing.T) {
	env := spatlEnv(t, 3, 9)
	fl.Run(env, New(fastOpts()), fl.RunOpts{Rounds: 2})
	c := env.Clients[2]
	// Reset this client as if it never trained.
	encBefore := env.Global.State(models.ScopeEncoder)
	ColdStart(env, fastOpts(), c, 2, rand.New(rand.NewSource(10)))
	encAfter := c.Model.State(models.ScopeEncoder)
	for i := range encBefore {
		if encBefore[i] != encAfter[i] {
			t.Fatal("cold start must leave the downloaded encoder unchanged")
		}
	}
	acc := fl.EvalAccuracy(c.Model, c.Val, 32)
	if acc < 0.25 {
		t.Fatalf("cold-started client accuracy %.3f below chance", acc)
	}
}

func TestPretrainAndFineTuneAgent(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}
	m := models.Build(spec, 11)
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8}, 80, 41, 42)
	agent, hist := PretrainAgent(rl.AgentConfig{Dim: 8, HeadHidden: 8, Seed: 12}, m, ds, 0.6, 3, 2, 13)
	if len(hist) != 3 {
		t.Fatalf("pretrain history length %d", len(hist))
	}
	// Transfer to a different architecture.
	m18 := models.Build(models.Spec{Arch: "resnet18", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}, 14)
	hist2 := FineTuneAgent(agent, m18, ds, 0.6, 2, 2, 15)
	if len(hist2) != 2 {
		t.Fatalf("finetune history length %d", len(hist2))
	}
	for _, h := range append(hist, hist2...) {
		if math.IsNaN(h.AvgReward) || math.IsNaN(h.Loss) {
			t.Fatal("agent training produced NaN")
		}
	}
}

func TestSPATLWithPretrainedAgent(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}
	m := models.Build(spec, 16)
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8}, 60, 51, 52)
	agent, _ := PretrainAgent(rl.AgentConfig{Dim: 8, HeadHidden: 8, Seed: 17}, m, ds, 0.6, 2, 2, 18)

	env := spatlEnv(t, 3, 19)
	opts := fastOpts()
	opts.Pretrained = agent.Save()
	res := fl.Run(env, New(opts), fl.RunOpts{Rounds: 2})
	if len(res.Records) != 2 {
		t.Fatal("run did not complete")
	}
}

func TestSPATLDeterministic(t *testing.T) {
	r1 := fl.Run(spatlEnv(t, 3, 20), New(fastOpts()), fl.RunOpts{Rounds: 2})
	r2 := fl.Run(spatlEnv(t, 3, 20), New(fastOpts()), fl.RunOpts{Rounds: 2})
	for i := range r1.Records {
		if r1.Records[i].CumUp != r2.Records[i].CumUp {
			t.Fatal("SPATL byte accounting must be deterministic")
		}
		if math.Abs(r1.Records[i].AvgAcc-r2.Records[i].AvgAcc) > 1e-9 {
			t.Fatal("SPATL accuracy must be deterministic")
		}
	}
}

func TestSPATLSurvivesClientFailures(t *testing.T) {
	env := spatlEnv(t, 3, 21)
	env.Cfg.DropRate = 0.4
	res := fl.Run(env, New(fastOpts()), fl.RunOpts{Rounds: 4})
	if len(res.Records) != 4 {
		t.Fatal("run did not complete under failures")
	}
	for _, rec := range res.Records {
		if math.IsNaN(rec.AvgAcc) {
			t.Fatal("NaN accuracy under failure injection")
		}
	}
	if res.BestAcc() < 0.30 {
		t.Fatalf("SPATL best acc %.3f under 40%% drops", res.BestAcc())
	}
}

func TestSPATLHalfPrecision(t *testing.T) {
	full := spatlEnv(t, 3, 22)
	resFull := fl.Run(full, New(fastOpts()), fl.RunOpts{Rounds: 2})
	half := spatlEnv(t, 3, 22)
	half.Cfg.HalfPrecision = true
	resHalf := fl.Run(half, New(fastOpts()), fl.RunOpts{Rounds: 2})
	// Values halve; index ranges stay 32-bit, so the ratio is between
	// 0.5 and 1.
	ratio := float64(resHalf.Records[1].CumUp) / float64(resFull.Records[1].CumUp)
	if ratio >= 0.9 || ratio <= 0.4 {
		t.Fatalf("SPATL half-precision uplink ratio %.3f", ratio)
	}
	if resHalf.BestAcc() < 0.30 {
		t.Fatalf("half-precision SPATL best acc %.3f", resHalf.BestAcc())
	}
}
