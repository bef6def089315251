package nn

import "spatl/internal/tensor"

// packCache caches one derived form of a weight tensor — Linear's Wᵀ —
// so it is built once and reused across minibatches until the weights
// change. Validity is
// keyed on the weight tensor's mutation counter (tensor.Tensor.Version):
// optimizer steps and every other weight-writing path bump the counter
// (directly or via Param.Bump), which lazily invalidates all caches
// derived from that tensor.
//
// The buffer is owned by the layer, not the scratch pool, because it
// must survive across Forward/Backward calls. get is called from the
// serial prologue of a layer pass, never from inside a Parallel region,
// so no synchronization is needed; workers only read the returned slice.
type packCache struct {
	ver   uint64
	n     int
	valid bool
	buf   []float32
}

// get returns the cached derived form of w, refilling it with fill when
// the weight tensor has mutated (or the requested size changed) since
// the last call.
func (pc *packCache) get(w *tensor.Tensor, n int, fill func(dst []float32)) []float32 {
	v := w.Version()
	if pc.valid && pc.ver == v && pc.n == n {
		return pc.buf
	}
	if cap(pc.buf) < n {
		pc.buf = make([]float32, n)
	}
	pc.buf = pc.buf[:n]
	fill(pc.buf)
	pc.ver, pc.n, pc.valid = v, n, true
	return pc.buf
}

// Bump records an in-place mutation of the parameter's weights made by
// writing W.Data directly, so caches derived from them (Linear's Wᵀ, the
// sparsity patterns) refill on next use. Param structs returned by Params() share the
// underlying tensors, so bumping any alias invalidates everywhere.
func (p *Param) Bump() { p.W.MarkMutated() }
