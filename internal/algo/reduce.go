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
