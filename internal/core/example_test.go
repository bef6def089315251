package core_test

import (
	"fmt"
	"math/rand"

	"spatl/internal/algo"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/scenario"
)

// Example runs SPATL end to end on a miniature federation and checks the
// paper's two headline properties: the federation learns, and the uplink
// stays below what a SCAFFOLD-style dense state+control exchange would
// cost.
func Example() {
	const clients = 3
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8}, clients*60, 1, 2)
	parts := data.DirichletPartition(ds.Y, 4, clients, 0.5, 10, rand.New(rand.NewSource(3)))
	var cd []fl.ClientData
	for _, p := range parts {
		tr, va := ds.Subset(p).Split(0.8)
		cd = append(cd, fl.ClientData{Train: tr, Val: va})
	}
	spec := models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}
	env := fl.NewEnv(spec, fl.Config{
		NumClients: clients, LocalEpochs: 1, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1,
	}, cd)

	spatl, err := scenario.NewAlgorithm("spatl", scenario.Params{
		FineTuneRounds: 1, FineTuneEpisodes: 2, AgentDim: 8, AgentHidden: 8,
	})
	if err != nil {
		panic(err)
	}
	res := fl.Run(env, spatl, fl.RunOpts{Rounds: 4})
	selections := 0
	for _, tr := range spatl.Trainers() {
		if tr.(*algo.SPATLTrainer).LastSelection != nil {
			selections++
		}
	}

	denseTwoX := int64(4 * clients * 2 * 4 * env.Global.StateLen(models.ScopeEncoder))
	fmt.Println("learned above chance:", res.BestAcc() > 0.3)
	fmt.Println("uplink below dense 2x:", res.Records[len(res.Records)-1].CumUp < denseTwoX)
	fmt.Println("per-client selections recorded:", selections == clients)
	// Output:
	// learned above chance: true
	// uplink below dense 2x: true
	// per-client selections recorded: true
}
