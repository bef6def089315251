package fl

import (
	"math"
	"math/rand"
	"spatl/internal/algo"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/data"
	"spatl/internal/models"
	"spatl/internal/nn"
)

// testEnv builds a small but real FL environment: an MLP over the
// synthetic CIFAR task at 8×8, Dirichlet-partitioned across clients.
func testEnv(t testing.TB, numClients int, cfg Config) *Env {
	return testEnvArch(t, "mlp", numClients, cfg)
}

// testEnvArch is testEnv for any model family at half width.
func testEnvArch(t testing.TB, arch string, numClients int, cfg Config) *Env {
	t.Helper()
	cfg.NumClients = numClients
	cfg = cfg.WithDefaults()
	spec := models.Spec{Arch: arch, Classes: 4, InC: 3, H: 8, W: 8, Width: 0.5}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8, Noise: 0.25}, numClients*80, 11, 12)
	parts := data.DirichletPartition(ds.Y, 4, numClients, 0.5, 10, rand.New(rand.NewSource(cfg.Seed+5)))
	var cd []ClientData
	for _, p := range parts {
		sub := ds.Subset(p)
		tr, va := sub.Split(0.8)
		cd = append(cd, ClientData{Train: tr, Val: va})
	}
	return NewEnv(spec, cfg, cd)
}

func quickCfg(seed int64) Config {
	return Config{
		SampleRatio: 1, LocalEpochs: 2, BatchSize: 16,
		LR: 0.05, Momentum: 0.9, Seed: seed,
	}
}

func TestSampleClientsSizeAndDeterminism(t *testing.T) {
	env := testEnv(t, 10, quickCfg(1))
	env.Cfg.SampleRatio = 0.4
	s1 := env.SampleClients()
	if len(s1) != 4 {
		t.Fatalf("sampled %d clients, want 4", len(s1))
	}
	for i := 1; i < len(s1); i++ {
		if s1[i] <= s1[i-1] {
			t.Fatal("selection must be sorted and unique")
		}
	}
	env2 := testEnv(t, 10, quickCfg(1))
	env2.Cfg.SampleRatio = 0.4
	s2 := env2.SampleClients()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same seed must give same selection")
		}
	}
}

func TestSampleClientsAtLeastOne(t *testing.T) {
	env := testEnv(t, 3, quickCfg(2))
	env.Cfg.SampleRatio = 0.01
	if len(env.SampleClients()) != 1 {
		t.Fatal("must sample at least one client")
	}
}

// TestWeightedAverage: a FedAvg round weights each upload by its
// client's training-set size.
func TestWeightedAverage(t *testing.T) {
	for i, v := range fedAvgRound(t, filledStates(1, 3), []int{1, 3}) {
		if math.Abs(float64(v)-2.5) > 1e-6 {
			t.Fatalf("state[%d] = %v, want 2.5", i, v)
		}
	}
}

// fedAvgSpec is the model fedAvgRound's global is built from.
var fedAvgSpec = models.Spec{Arch: "mlp", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.5}

// fedAvgRound runs one FedAvg server round on fedAvgSpec's global (seed
// 3) in which client i uploads states[i] over sizes[i] training
// examples, or is absent when states[i] is nil. It returns the global
// state the round leaves.
func fedAvgRound(t *testing.T, states [][]float32, sizes []int) []float32 {
	t.Helper()
	agg := algo.NewFedAvgAggregator(models.Build(fedAvgSpec, 3), algo.Config{NumClients: len(states)})
	ids := make([]uint32, len(states))
	for i := range ids {
		ids[i] = uint32(i)
	}
	agg.Broadcast(0)
	agg.BeginRound(0, ids)
	for i, st := range states {
		if st == nil {
			agg.MarkAbsent(0, ids[i])
			continue
		}
		agg.Collect(0, ids[i], sizes[i], comm.EncodeDense(st))
	}
	agg.FinishRound(0)
	got, err := comm.DecodeDenseAnyInto(nil, agg.Final())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// filledStates returns a state of fedAvgSpec's length per value, every
// element of state i vals[i].
func filledStates(vals ...float32) [][]float32 {
	n := models.Build(fedAvgSpec, 3).StateLen(models.ScopeAll)
	states := make([][]float32, len(vals))
	for i, v := range vals {
		states[i] = make([]float32, n)
		for j := range states[i] {
			states[i][j] = v
		}
	}
	return states
}

func TestNewEnvClientsStartFromGlobal(t *testing.T) {
	env := testEnv(t, 3, quickCfg(3))
	g := env.Global.State(models.ScopeAll)
	for _, c := range env.Clients {
		s := c.Model.State(models.ScopeAll)
		for i := range g {
			if s[i] != g[i] {
				t.Fatal("client models must start at the global weights")
			}
		}
	}
}

func TestFedAvgLearnsAboveChance(t *testing.T) {
	env := testEnv(t, 4, quickCfg(4))
	res := Run(env, fedAvg(), RunOpts{Rounds: 6})
	if res.FinalAcc() < 0.45 {
		t.Fatalf("FedAvg accuracy %.3f after 6 rounds; want > 0.45 (chance 0.25)", res.FinalAcc())
	}
}

func TestFedProxLearnsAboveChance(t *testing.T) {
	env := testEnv(t, 4, quickCfg(5))
	res := Run(env, fedProx(), RunOpts{Rounds: 6})
	if res.FinalAcc() < 0.45 {
		t.Fatalf("FedProx accuracy %.3f", res.FinalAcc())
	}
}

func TestSCAFFOLDLearnsAboveChance(t *testing.T) {
	env := testEnv(t, 4, quickCfg(6))
	res := Run(env, scaffold(), RunOpts{Rounds: 8})
	// SCAFFOLD is the most fragile baseline (the paper reports it
	// diverging outright at larger scales); require clearly above chance
	// (0.25) rather than parity with FedAvg at this tiny scale.
	if res.BestAcc() < 0.32 {
		t.Fatalf("SCAFFOLD best accuracy %.3f, want > 0.32", res.BestAcc())
	}
}

func TestFedNovaLearnsAboveChance(t *testing.T) {
	env := testEnv(t, 4, quickCfg(7))
	res := Run(env, fedNova(), RunOpts{Rounds: 6})
	if res.FinalAcc() < 0.40 {
		t.Fatalf("FedNova accuracy %.3f", res.FinalAcc())
	}
}

func TestCommunicationCostRatios(t *testing.T) {
	// SCAFFOLD and FedNova must cost ≈2× FedAvg uplink per round — the
	// relationship the paper's Table I is built on.
	upOf := func(algo *Federation, seed int64) int64 {
		env := testEnv(t, 4, quickCfg(seed))
		env.Cfg.LocalEpochs = 1
		res := Run(env, algo, RunOpts{Rounds: 2})
		return res.Records[len(res.Records)-1].CumUp
	}
	fa := upOf(fedAvg(), 8)
	sc := upOf(scaffold(), 8)
	fn := upOf(fedNova(), 8)
	fp := upOf(fedProx(), 8)
	if ratio := float64(sc) / float64(fa); ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("SCAFFOLD/FedAvg uplink ratio %.2f, want ≈2", ratio)
	}
	if ratio := float64(fn) / float64(fa); ratio < 1.6 || ratio > 2.2 {
		t.Fatalf("FedNova/FedAvg uplink ratio %.2f, want ≈2", ratio)
	}
	if fp != fa {
		t.Fatalf("FedProx uplink %d must equal FedAvg %d", fp, fa)
	}
}

func TestRunDeterministic(t *testing.T) {
	r1 := Run(testEnv(t, 3, quickCfg(9)), fedAvg(), RunOpts{Rounds: 2})
	r2 := Run(testEnv(t, 3, quickCfg(9)), fedAvg(), RunOpts{Rounds: 2})
	if len(r1.Records) != len(r2.Records) {
		t.Fatal("record counts differ")
	}
	for i := range r1.Records {
		if r1.Records[i].CumUp != r2.Records[i].CumUp {
			t.Fatal("byte accounting must be deterministic")
		}
	}
	// Accuracy should also be reproducible: parallel order does not
	// affect per-client training (per-client seeded RNGs, fixed-order
	// aggregation).
	for i := range r1.Records {
		if math.Abs(r1.Records[i].AvgAcc-r2.Records[i].AvgAcc) > 1e-9 {
			t.Fatalf("accuracy differs at record %d: %v vs %v", i, r1.Records[i].AvgAcc, r2.Records[i].AvgAcc)
		}
	}
}

func TestRunEarlyStopsAtTarget(t *testing.T) {
	env := testEnv(t, 4, quickCfg(10))
	res := Run(env, fedAvg(), RunOpts{Rounds: 50, TargetAcc: 0.30})
	if len(res.Records) >= 50 {
		t.Fatal("run should stop early at an easy target")
	}
	if res.FinalAcc() < 0.30 {
		t.Fatal("final accuracy below target despite early stop")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Records: []RoundRecord{
		{Round: 0, AvgAcc: 0.2, CumUp: 100},
		{Round: 1, AvgAcc: 0.5, CumUp: 200},
		{Round: 2, AvgAcc: 0.4, CumUp: 300},
	}}
	if r.FinalAcc() != 0.4 {
		t.Fatal("FinalAcc")
	}
	if r.BestAcc() != 0.5 {
		t.Fatal("BestAcc")
	}
	if r.RoundsToAcc(0.45) != 2 {
		t.Fatalf("RoundsToAcc = %d", r.RoundsToAcc(0.45))
	}
	if r.RoundsToAcc(0.9) != -1 {
		t.Fatal("RoundsToAcc for unreachable target")
	}
	if r.UpAt(0.45) != 200 {
		t.Fatalf("UpAt = %d", r.UpAt(0.45))
	}
	if r.UpAt(0.99) != 300 {
		t.Fatal("UpAt falls back to final")
	}
}

func TestLocalSGDStepCount(t *testing.T) {
	env := testEnv(t, 2, quickCfg(11))
	c := env.Clients[0]
	steps := algo.LocalSGD(c, algo.LocalOpts{
		Params: c.Model.Params(), Epochs: 2, BatchSize: 16,
		LR: 0.01, Momentum: 0.9,
	}, rand.New(rand.NewSource(1)))
	wantPerEpoch := (c.Train.Len() + 15) / 16
	if steps != 2*wantPerEpoch {
		t.Fatalf("steps = %d, want %d", steps, 2*wantPerEpoch)
	}
}

func TestEvalAccuracyBounds(t *testing.T) {
	env := testEnv(t, 2, quickCfg(12))
	acc := EvalAccuracy(env.Global, env.Clients[0].Val, 16)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of [0,1]", acc)
	}
}

func TestHookRunsOncePerStep(t *testing.T) {
	env := testEnv(t, 2, quickCfg(13))
	c := env.Clients[0]
	calls := 0
	steps := algo.LocalSGD(c, algo.LocalOpts{
		Params: c.Model.Params(), Epochs: 1, BatchSize: 32,
		LR:   0.01,
		Hook: func(params []*nn.Param) { calls++ },
	}, rand.New(rand.NewSource(1)))
	if calls != steps {
		t.Fatalf("hook ran %d times for %d steps", calls, steps)
	}
}
