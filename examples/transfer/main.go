// Cold-start transfer: deploying on a client that never trained.
//
// In production FL most devices never get sampled. SPATL's answer
// (eq. 4, §IV-A) is that such a client only downloads the shared encoder
// and fits its small local predictor — no encoder gradients, no upload.
// This example trains a federation of 6 clients, then cold-starts two
// held-out clients with very different data mixes, comparing against
// simply deploying the global model untouched. Run with:
//
//	go run ./examples/transfer
package main

import (
	"fmt"
	"math/rand"

	"spatl/internal/core"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/scenario"
)

func main() {
	const (
		trainClients = 6
		coldClients  = 2
		total        = trainClients + coldClients
	)
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 6, H: 16, W: 16, Noise: 0.5}, total*130, 21, 22)
	parts := data.DirichletPartition(ds.Y, 6, total, 0.3, 12, rand.New(rand.NewSource(23)))
	var cd []fl.ClientData
	for _, p := range parts {
		tr, va := ds.Subset(p).Split(0.8)
		cd = append(cd, fl.ClientData{Train: tr, Val: va})
	}
	spec := models.Spec{Arch: "resnet20", Classes: 6, InC: 3, H: 16, W: 16, Width: 0.25}
	// Only the first trainClients shards join the federation; the last
	// two never participate in any round.
	env := fl.NewEnv(spec, fl.Config{
		NumClients:  trainClients,
		SampleRatio: 1.0,
		LocalEpochs: 2, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 24,
	}, cd[:trainClients])

	algo, err := scenario.NewAlgorithm("spatl", scenario.Params{FineTuneRounds: 2, FineTuneEpisodes: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("federated training (cold clients excluded)...")
	res := fl.Run(env, algo, fl.RunOpts{Rounds: 8})
	fmt.Printf("federation average accuracy: %.3f\n\n", res.FinalAcc())

	for i := 0; i < coldClients; i++ {
		// A brand-new device: fresh model, never trained, never sampled.
		m := models.Build(spec, int64(500+i))
		c := &fl.Client{ID: trainClients + i, Train: cd[trainClients+i].Train, Val: cd[trainClients+i].Val, Model: m}
		// Baseline: deploy global encoder + the untrained predictor.
		c.Model.SetState(models.ScopeEncoder, env.Global.State(models.ScopeEncoder))
		before := fl.EvalAccuracy(c.Model, c.Val, 64)
		// SPATL cold start: fit the local predictor only (eq. 4).
		core.ColdStart(env, core.Options{}, c, 4, rand.New(rand.NewSource(int64(100+i))))
		after := fl.EvalAccuracy(c.Model, c.Val, 64)
		fmt.Printf("cold client %d: accuracy %.3f → %.3f after predictor-only adaptation\n",
			c.ID, before, after)
	}
	fmt.Println("\nThe encoder was never modified on the cold clients — only the small local")
	fmt.Println("predictor trained, which is exactly what a storage/compute-limited edge device can afford.")
}
