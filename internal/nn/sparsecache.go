package nn

import "spatl/internal/tensor"

// maskStaticDispatch is a test reference, not an option: it is always
// true outside this package's tests. With it on, layers probe a weight
// tensor's sparsity once per mutation (Param.Bump) and, for sparse
// weights, precompute the exact nonzero pattern so every subsequent
// minibatch dispatches straight to the pattern kernels — no per-call
// probe, no per-element zero branch. masksparse_test.go sets it false
// to hold the pattern kernels bitwise against the probing kernels.
var maskStaticDispatch = true

// sparseCache caches a weight tensor's sparsity decision and, when the
// weights are sparse, the exact nonzero pattern the mask-static GEMM
// kernels walk. Like packCache, validity is keyed on the tensor's
// mutation counter: an optimizer step or any other weight write bumps
// the counter and lazily re-probes. Under a mask-static federation
// (algo.SSFL) the pattern itself is stable for the whole mask epoch —
// only the decision probe re-runs after each weight update, and it is a
// strided O(1) sample, not a full scan; the pattern rebuild (one full
// scan) happens only when the weights are actually sparse.
//
// probe is called from the serial prologue of a layer pass, never from
// inside a Parallel region; workers only read the returned pattern.
type sparseCache struct {
	ver   uint64
	valid bool
	// sparse records the probe decision; pat is non-nil only when sparse.
	sparse bool
	pat    *tensor.MaskPat
}

// probe returns whether w's weights are sparse and, if so, their exact
// (m,k) nonzero pattern, re-evaluating only when the tensor has mutated
// since the last call. With mask-static dispatch disabled it degrades
// to the original per-call strided probe and returns no pattern.
func (sc *sparseCache) probe(w *tensor.Tensor, m, k int) (bool, *tensor.MaskPat) {
	if !maskStaticDispatch {
		return tensor.IsSparse(w.Data), nil
	}
	v := w.Version()
	if sc.valid && sc.ver == v {
		if !sc.sparse {
			return false, nil
		}
		return true, sc.pat
	}
	sc.sparse = tensor.IsSparse(w.Data)
	if sc.sparse {
		sc.pat = tensor.BuildMaskPatInto(sc.pat, w.Data, m, k)
	}
	sc.ver, sc.valid = v, true
	if !sc.sparse {
		return false, nil
	}
	return true, sc.pat
}
