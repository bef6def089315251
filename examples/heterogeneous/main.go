// Heterogeneous clients: why personalization matters on non-IID data.
//
// This example recreates the paper's motivating scenario (§V-B, Fig.
// "local_acc"): ten clients with heavily skewed label distributions
// train the same ResNet-20 with SPATL and with SCAFFOLD. SPATL's
// per-client accuracy is higher *and* tighter, because each client's
// private predictor adapts the shared encoder to its own data, while a
// uniform model over-serves clients near the global distribution and
// under-serves the rest. Run with:
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"math/rand"

	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/scenario"
	"spatl/internal/stats"
)

func buildEnv(seed int64) *fl.Env {
	const clients = 10
	// Noise 0.6 makes the task genuinely hard, and α=0.15 gives each
	// client a starkly different label mix; with only half the clients
	// sampled per round, the uniform-model baseline drifts — the regime
	// where the paper's heterogeneity findings appear (§V-B).
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 6, H: 16, W: 16, Noise: 0.6}, clients*120, 7, 8)
	parts := data.DirichletPartition(ds.Y, 6, clients, 0.15, 12, rand.New(rand.NewSource(seed)))
	var cd []fl.ClientData
	for _, p := range parts {
		tr, va := ds.Subset(p).Split(0.8)
		cd = append(cd, fl.ClientData{Train: tr, Val: va})
	}
	spec := models.Spec{Arch: "resnet20", Classes: 6, InC: 3, H: 16, W: 16, Width: 0.25}
	return fl.NewEnv(spec, fl.Config{
		NumClients: clients, SampleRatio: 0.5,
		LocalEpochs: 2, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: seed,
	}, cd)
}

func main() {
	const rounds = 12
	for _, run := range []struct {
		name, algo string
	}{
		{"SPATL (personalized)", "spatl"},
		{"SCAFFOLD (uniform model)", "scaffold"},
	} {
		algo, err := scenario.NewAlgorithm(run.algo, scenario.Params{FineTuneRounds: 2, FineTuneEpisodes: 2})
		if err != nil {
			panic(err)
		}
		env := buildEnv(9)
		res := fl.Run(env, algo, fl.RunOpts{Rounds: rounds})
		per := res.Records[len(res.Records)-1].PerClient
		fmt.Printf("\n%s after %d rounds:\n", run.name, rounds)
		fmt.Printf("  per-client accuracy: ")
		for _, v := range per {
			fmt.Printf("%.2f ", v)
		}
		fmt.Printf("\n  mean %.3f  std %.3f  worst client %.3f\n",
			stats.Mean(per), stats.Std(per), stats.Min(per))
	}
	fmt.Println("\nExpected: SPATL serves the *hardest* clients much better — a higher worst-client")
	fmt.Println("accuracy and a tighter spread — because each client's private predictor adapts")
	fmt.Println("the shared encoder to its own label mix. A uniform model over-serves clients")
	fmt.Println("near the global distribution and abandons the outliers (the paper's Fig. on")
	fmt.Println("per-client local accuracy, §V-B).")
}
