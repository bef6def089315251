// Package core implements SPATL — Salient Parameter Aggregation and
// Transfer Learning for heterogeneous federated learning (SC 2022).
//
// SPATL differs from the uniform-model baselines in three ways, each
// independently switchable for the paper's ablations (§V-F):
//
//  1. Heterogeneous knowledge transfer (§IV-A): only the encoder is
//     shared with the aggregation server; every client keeps a private
//     predictor head that adapts the shared representation to its
//     non-IID data.
//  2. Salient parameter selection (§IV-B): a pre-trained GNN+PPO agent,
//     fine-tuned per client (MLP head only), selects the encoder's
//     salient filters; only the selected parameters and their index
//     ranges are uploaded, and the server aggregates per index (eq. 12).
//  3. Generic-parameter gradient control (§IV-C): SCAFFOLD-style control
//     variates correct gradient drift, but only on the encoder (the
//     generic parameters); the predictor's gradients stay heterogeneous.
//
// The algorithm itself — aggregator and trainer — lives in the
// transport-agnostic internal/algo package, shared with the TCP
// transport (internal/flnet), and runs in-process like every other
// algorithm: as an fl.Federation over that pair (the registry in
// internal/scenario builds it by name). This package holds what is
// SPATL's alone outside the round — the cold-start transfer path for
// never-selected clients (eq. 4) and the agent pre-training entry point
// used by the experiment harness.
package core

import (
	"math/rand"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/fl"
)

// Options configures SPATL; it aliases the transport-agnostic
// algo.SPATLOptions. The zero value enables everything with the paper's
// defaults; the Disable* switches drive the ablation studies.
type Options = algo.SPATLOptions

// ColdStart adapts a client that never participated in training (eq. 4):
// it downloads the current global encoder and fits only its local
// predictor, leaving the shared representation untouched.
func ColdStart(env *fl.Env, opts Options, c *fl.Client, epochs int, rng *rand.Rand) {
	scope := opts.Scope()
	n := env.Global.StateLen(scope)
	st := env.Global.StateInto(scope, comm.GetF32(n))
	var payload []byte
	if env.Cfg.HalfPrecision {
		payload = comm.EncodeDenseF16Into(comm.GetBuf(comm.DenseF16Len(n)), st)
	} else {
		payload = comm.EncodeDenseInto(comm.GetBuf(comm.DenseLen(n)), st)
	}
	comm.PutF32(st)
	env.Meter.AddDown(len(payload))
	dl := mustDenseInto(comm.GetF32(n), payload)
	c.Model.SetState(scope, dl)
	comm.PutF32(dl)
	comm.PutBuf(payload)
	algo.LocalSGD(c, algo.LocalOpts{
		Params: c.Model.PredictorParams(), Epochs: epochs, BatchSize: env.Cfg.BatchSize,
		LR: env.Cfg.LR, Momentum: env.Cfg.Momentum, WeightDecay: env.Cfg.WeightDecay,
		FreezeEncoder: true,
	}, rng)
}

// mustDenseInto decodes into dst (typically from comm.GetF32), panicking
// on corruption — the simulation transports bytes in-process.
func mustDenseInto(dst []float32, buf []byte) []float32 {
	v, err := comm.DecodeDenseAnyInto(dst, buf)
	if err != nil {
		panic(err)
	}
	return v
}
