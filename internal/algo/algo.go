// Package algo is the transport-agnostic federated-learning algorithm
// layer. Every algorithm — FedAvg, FedProx, FedNova, SCAFFOLD and SPATL
// — is implemented exactly once here, as a byte-payload Aggregator
// (server side) and Trainer (client side) pair. Transports only move
// bytes between the two:
//
//   - internal/fl drives the pair in-process with parallel clients,
//     comm.Meter byte accounting and deterministic failure injection —
//     the simulation harness for experiments;
//   - internal/flnet drives the identical pair over TCP with framing,
//     deadlines and straggler tolerance — the deployment path.
//
// Because both transports execute the same cores with the same
// per-(round, client) seeds, a federation produces bitwise-identical
// global models whichever transport carries it (see the cross-transport
// equivalence test in internal/flnet).
//
// Payload ownership: the slice returned by Broadcast/LocalUpdate is
// owned by the aggregator/trainer and reused on the next call; the
// payload passed to Collect/LocalUpdate/Finish is only valid for the
// duration of the call. Implementations decode into pooled buffers
// (internal/comm) and never retain transport memory.
package algo

import (
	"spatl/internal/comm"
	"spatl/internal/nn"
)

// Aggregator is the server side of one algorithm. Implementations own
// the payload encoding; transports only move bytes. A round is
// Broadcast, BeginRound, any number of Collect / CollectLate /
// MarkAbsent calls, FinishRound. Every aggregator folds on arrival (see
// stream.go): uploads may be collected in ARBITRARY order and the cursor
// over the announced selection restores the canonical
// ascending-client-ID fold order, bitwise identical to a sequential
// selection-order Collect pass.
type Aggregator interface {
	// Broadcast produces the payload sent to every sampled client at the
	// start of round. The returned slice is owned by the aggregator and
	// reused on the next Broadcast/Final call.
	Broadcast(round int) []byte
	// BeginRound announces the round's selected client IDs — the
	// canonical fold order after ascending sort. Call after Broadcast
	// and before the first Collect of the round.
	BeginRound(round int, selected []uint32)
	// Collect consumes one sampled client's upload; payload is only
	// valid during the call. An upload from a client outside the
	// announced selection, or a second one from the same client, folds
	// where it arrives. Malformed uploads are counted (see the
	// aggregators' Dropped methods), never fatal.
	Collect(round int, client uint32, trainSize int, payload []byte)
	// CollectLate folds a straggler's upload carried over from an
	// earlier round, bypassing the cursor entirely: late uploads fold at
	// their delivery position (FedBuff semantics), even when the same
	// client is also selected — and separately tracked — this round.
	// As with Collect, payload may be reused as soon as CollectLate
	// returns.
	CollectLate(round int, client uint32, trainSize int, payload []byte)
	// MarkAbsent tells the reducer a selected client will not deliver
	// this round (dead connection, straggler deadline, injected drop),
	// so the cursor can advance past it instead of staging every later
	// upload until FinishRound.
	MarkAbsent(round int, client uint32)
	// SetStagingLimit bounds how many out-of-order uploads may park at
	// once. n <= 0 (the default) bounds by the round's selection size —
	// lossless, preserving every upload. With a hard limit, an overflow
	// evicts the staged upload farthest from the cursor (counted in
	// "agg.staged_overflow"): the work closest to folding survives.
	SetStagingLimit(n int)
	// FinishRound folds the collected uploads into the global model.
	// Called once per round, after the transport has delivered every
	// upload that arrived (which may be none); whatever is still parked
	// behind an unresolved position folds here, so correctness never
	// depends on MarkAbsent — only the memory bound does.
	FinishRound(round int)
	// Final produces the payload broadcast at the end of the federation.
	Final() []byte
}

// Trainer is the client side of one algorithm.
type Trainer interface {
	// LocalUpdate consumes a round broadcast, runs local training, and
	// returns the upload. The returned slice is owned by the trainer and
	// reused on the next call; a nil return means the broadcast was
	// unusable and nothing is uploaded.
	LocalUpdate(round int, payload []byte) []byte
	// Finish consumes the final model payload.
	Finish(payload []byte)
}

// Config carries the hyperparameters an algorithm core needs on either
// side of the wire. It mirrors the simulation config (fl.Config) minus
// the transport-owned knobs (sampling ratio, drop injection).
type Config struct {
	// NumClients is the federation size N — required by the control
	// variate updates (SCAFFOLD, SPATL) that scale by 1/N.
	NumClients  int
	LocalEpochs int
	BatchSize   int
	LR          float64
	// LRSchedule, when set, overrides LR per communication round.
	LRSchedule  nn.Schedule
	Momentum    float64
	WeightDecay float64
	ProxMu      float64 // FedProx proximal coefficient (default 0.01)
	GradClip    float64 // global-norm gradient clip; 0 disables
	// HalfPrecision ships payloads as IEEE 754 binary16.
	HalfPrecision bool
	// Seed drives the deterministic per-(round, client) training RNGs,
	// and must match across the server and every client for reproducible
	// federations.
	Seed int64
}

// WithDefaults fills zero training fields with the standard settings
// (NumClients is left alone — it has no sensible default).
func (c Config) WithDefaults() Config {
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	return c
}

// LRAt returns the learning rate for a communication round, honouring
// the schedule when one is configured.
func (c Config) LRAt(round int) float64 {
	if c.LRSchedule != nil {
		return c.LRSchedule.LRAt(round)
	}
	return c.LR
}

// ClientSeed derives the deterministic per-(round, client) seed for
// local training. Server and clients derive identical seeds from the
// shared Config.Seed, which is what makes the two transports
// bitwise-equivalent.
func ClientSeed(seed int64, round, clientID int) int64 {
	return seed*1_000_003 + int64(round)*10_007 + int64(clientID)*101 + 17
}

// localOpts builds the LocalOpts for one round of client training.
func (c Config) localOpts(params []*nn.Param, round int) LocalOpts {
	return LocalOpts{
		Params: params, Epochs: c.LocalEpochs, BatchSize: c.BatchSize,
		LR: c.LRAt(round), Momentum: c.Momentum, WeightDecay: c.WeightDecay,
		GradClip: c.GradClip,
	}
}

// encodeDenseInto serializes v into dst at the configured precision.
func (c Config) encodeDenseInto(dst []byte, v []float32) []byte {
	if c.HalfPrecision {
		return comm.EncodeDenseF16Into(dst, v)
	}
	return comm.EncodeDenseInto(dst, v)
}

// denseLen returns the encoded size of an n-element dense payload at the
// configured precision — for pre-sizing pooled buffers.
func (c Config) denseLen(n int) int {
	if c.HalfPrecision {
		return comm.DenseF16Len(n)
	}
	return comm.DenseLen(n)
}

// encodeSparseInto serializes s into dst at the configured precision.
func (c Config) encodeSparseInto(dst []byte, s *comm.Sparse) []byte {
	if c.HalfPrecision {
		return comm.EncodeSparseF16Into(dst, s)
	}
	return comm.EncodeSparseInto(dst, s)
}

// sparseLen returns the encoded size of s at the configured precision.
func (c Config) sparseLen(s *comm.Sparse) int {
	if c.HalfPrecision {
		return s.EncodedLenF16()
	}
	return s.EncodedLen()
}
