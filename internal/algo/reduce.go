package algo

import (
	"spatl/internal/comm"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// EffectiveLR is the asymptotic per-gradient step size of momentum SGD:
// η/(1−µ). Control-variate updates (SCAFFOLD, SPATL) divide cumulative
// weight movement by it to recover average gradients.
func EffectiveLR(lr, momentum float64) float64 {
	if momentum > 0 && momentum < 1 {
		return lr / (1 - momentum)
	}
	return lr
}

// WeightedAverageSerial is the retained reference reduction: Σ wᵢ·stateᵢ
// / Σ wᵢ in float64, clients outer, parameters inner. WeightedAverage
// must match it bitwise; determinism tests compare the two.
func WeightedAverageSerial(states [][]float32, weights []float64) []float32 {
	total := 0.0
	var first []float32
	for si, st := range states {
		if st == nil {
			continue
		}
		if first == nil {
			first = st
		}
		total += weights[si]
	}
	if first == nil || total == 0 {
		return nil
	}
	acc := make([]float64, len(first))
	for si, st := range states {
		if st == nil {
			continue
		}
		w := weights[si] / total
		for i, v := range st {
			acc[i] += w * float64(v)
		}
	}
	out := make([]float32, len(acc))
	for i, v := range acc {
		out[i] = float32(v)
	}
	return out
}

// WeightedAverage returns Σ wᵢ·stateᵢ / Σ wᵢ computed in float64,
// skipping nil states (clients whose upload was lost). Returns nil when
// no state survives.
//
// The reduction is parallelized by chunking the parameter dimension;
// within a chunk every index still sums clients in ascending order, so
// the result is bitwise identical to WeightedAverageSerial at any
// GOMAXPROCS.
func WeightedAverage(states [][]float32, weights []float64) []float32 {
	return WeightedAverageInto(nil, states, weights)
}

// WeightedAverageInto is WeightedAverage writing into dst when it has
// sufficient capacity (allocating only when it does not), so a caller
// that keeps the returned slice across rounds aggregates without any
// steady-state allocation. The float64 accumulators come from the pooled
// scratch either way.
func WeightedAverageInto(dst []float32, states [][]float32, weights []float64) []float32 {
	total := 0.0
	var first []float32
	for si, st := range states {
		if st == nil {
			continue
		}
		if first == nil {
			first = st
		}
		total += weights[si]
	}
	if first == nil || total == 0 {
		return nil
	}
	if cap(dst) < len(first) {
		dst = make([]float32, len(first))
	}
	out := dst[:len(first)]
	tensor.Parallel(len(first), func(lo, hi int) {
		// Pooled accumulator: explicitly zeroed because pool buffers hold
		// stale values and every index's chain must start from 0.0 to
		// match the serial reference.
		acc := tensor.GetScratchF64(hi - lo)
		for i := range acc {
			acc[i] = 0
		}
		for si, st := range states {
			if st == nil {
				continue
			}
			tensor.VecAccumScaled(acc, st[lo:hi], weights[si]/total)
		}
		tensor.VecF64ToF32(out[lo:hi], acc)
		tensor.PutScratchF64(acc)
	})
	return out
}

// ClipRanges restricts index ranges to [0, n): ranges entirely above n
// are dropped; a straddling range is truncated. Used to map state-vector
// index ranges onto the (prefix) trainable-parameter vector that control
// variates cover.
func ClipRanges(ranges []comm.Range, n int) []comm.Range {
	return clipRangesInto(make([]comm.Range, 0, len(ranges)), ranges, n)
}

// clipRangesInto is ClipRanges appending to dst[:0].
func clipRangesInto(dst, ranges []comm.Range, n int) []comm.Range {
	out := dst[:0]
	for _, r := range ranges {
		if int(r.Start) >= n {
			break
		}
		if int(r.Start+r.Len) > n {
			r.Len = uint32(n) - r.Start
		}
		if r.Len > 0 {
			out = append(out, r)
		}
	}
	return out
}

// addProx returns a LocalOpts hook adding FedProx's proximal gradient
// term μ(w − w_global) against the flattened global trainable weights.
func addProx(mu float64, globalFlat []float32) func(params []*nn.Param) {
	return func(params []*nn.Param) {
		off := 0
		m := float32(mu)
		for _, p := range params {
			n := p.W.Len()
			tensor.VecAxpyDiff(p.G.Data, p.W.Data, globalFlat[off:off+n], m)
			off += n
		}
	}
}

// addControl returns a hook applying SCAFFOLD-style gradient correction
// g += c − cᵢ over the flattened parameters in ctrlP (which may be a
// subset of the trained parameters — SPATL corrects only the encoder).
func addControl(c, ci []float32, ctrlP []*nn.Param) func(params []*nn.Param) {
	return func(params []*nn.Param) {
		off := 0
		for _, p := range ctrlP {
			n := p.W.Len()
			tensor.VecAddDiff(p.G.Data, c[off:off+n], ci[off:off+n])
			off += n
		}
	}
}
