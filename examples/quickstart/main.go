// Quickstart: federated training with SPATL in ~40 lines.
//
// Five clients hold non-IID shards of a synthetic image-classification
// task; SPATL trains a shared ResNet-20 encoder across them while each
// client keeps its own predictor head. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"os"

	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/scenario"
)

func main() {
	const clients = 5

	// 1. A dataset and a non-IID split (Dirichlet label skew, α=0.5 —
	//    the Non-IID benchmark setting).
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 6, H: 16, W: 16}, clients*150, 1, 2)
	parts := data.DirichletPartition(ds.Y, 6, clients, 0.5, 10, rand.New(rand.NewSource(3)))
	var cd []fl.ClientData
	for _, p := range parts {
		tr, va := ds.Subset(p).Split(0.8)
		cd = append(cd, fl.ClientData{Train: tr, Val: va})
	}

	// 2. The federated environment: a width-reduced ResNet-20 split into
	//    shared encoder + per-client predictor.
	spec := models.Spec{Arch: "resnet20", Classes: 6, InC: 3, H: 16, W: 16, Width: 0.25}
	env := fl.NewEnv(spec, fl.Config{
		NumClients: clients, SampleRatio: 1.0,
		LocalEpochs: 3, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1,
	}, cd)

	// 3. Train with SPATL: salient-parameter uploads, heterogeneous
	//    predictors, encoder-only gradient control.
	algo, err := scenario.NewAlgorithm("spatl", scenario.Params{FineTuneRounds: 2, FineTuneEpisodes: 2})
	if err != nil {
		panic(err)
	}
	res := fl.Run(env, algo, fl.RunOpts{Rounds: 10, Log: os.Stdout})

	last := res.Records[len(res.Records)-1]
	fmt.Printf("\nSPATL finished: avg client accuracy %.1f%%, total uplink %.2f MB\n",
		100*res.FinalAcc(), float64(last.CumUp)/(1<<20))
}
