package fl

import "spatl/internal/algo"

// The four baselines as this package's tests build them: the registry
// (internal/scenario) imports fl, so the tests name the core pairs
// themselves.

func fedAvg() *Federation {
	return NewAlgorithm("fedavg", algo.NewFedAvgAggregator, algo.NewFedAvgTrainer)
}

func fedProx() *Federation {
	return NewAlgorithm("fedprox", algo.NewFedAvgAggregator, algo.NewFedProxTrainer)
}

func scaffold() *Federation {
	return NewAlgorithm("scaffold", algo.NewSCAFFOLDAggregator, algo.NewSCAFFOLDTrainer)
}

func fedNova() *Federation {
	return NewAlgorithm("fednova", algo.NewFedNovaAggregator, algo.NewFedNovaTrainer)
}
