package fl_test

import (
	"fmt"
	"math/rand"

	"spatl/internal/algo"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
)

// Example demonstrates the minimal federated-learning loop: build a
// non-IID client population, pick an algorithm, run rounds.
func Example() {
	const clients = 3
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8}, clients*60, 1, 2)
	parts := data.DirichletPartition(ds.Y, 4, clients, 0.5, 10, rand.New(rand.NewSource(3)))
	var cd []fl.ClientData
	for _, p := range parts {
		tr, va := ds.Subset(p).Split(0.8)
		cd = append(cd, fl.ClientData{Train: tr, Val: va})
	}
	spec := models.Spec{Arch: "mlp", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.5}
	env := fl.NewEnv(spec, fl.Config{
		NumClients: clients, LocalEpochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 1,
	}, cd)

	fedavg := fl.NewAlgorithm("fedavg", algo.NewFedAvgAggregator, algo.NewFedAvgTrainer)
	res := fl.Run(env, fedavg, fl.RunOpts{Rounds: 4})
	fmt.Println("learned above chance:", res.BestAcc() > 0.3)
	fmt.Println("uplink measured:", res.Records[len(res.Records)-1].CumUp > 0)
	// Output:
	// learned above chance: true
	// uplink measured: true
}
