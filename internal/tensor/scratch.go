package tensor

import (
	"math/bits"
	"sync"
)

// Scratch buffers serve the transient slices the training hot path needs
// thousands of times per round (im2col columns, gradient panels, partial
// weight gradients). Buffers are recycled through power-of-two size
// classes backed by sync.Pool, so steady-state training does near-zero
// transient allocation while idle memory remains reclaimable by the GC.
//
// Ownership rules: a buffer obtained from GetScratch is exclusively owned
// by the caller until PutScratch; it must not be retained, aliased, or
// returned to user code afterwards. Scratch may be held across function
// calls within one logical operation (e.g. for the duration of a
// convolution backward pass). Layer buffers (Reuse) are drawn from the
// same pools, zero-filled, and owned by their layer from its first
// Forward until the model is released, when they come back here.
// GetScratch contents are unspecified; callers that accumulate must zero
// first.

// scratchMinBits is the smallest pooled size class (64 floats); tinier
// requests are allocated directly, they are too cheap to track.
const scratchMinBits = 6

// scratchPools[c] holds released buffers with floor(log2(cap)) == c, so
// every buffer in class c has cap ≥ 2^c. GetScratch(n) draws from class
// ceil(log2(n)), guaranteeing cap ≥ n for any hit.
var scratchPools [32]sync.Pool

// headerPool recycles the slice headers threaded through scratchPools so
// that a steady-state Get/Put cycle allocates nothing at all.
var headerPool = sync.Pool{New: func() any { return new([]float32) }}

// GetScratch returns a float32 buffer of length n with unspecified
// contents, drawn from the scratch pool when possible. Pair every call
// with PutScratch.
func GetScratch(n int) []float32 {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1)) // ceil(log2(n))
	if c < scratchMinBits {
		c = scratchMinBits
	}
	if c >= len(scratchPools) {
		return make([]float32, n)
	}
	if h, _ := scratchPools[c].Get().(*[]float32); h != nil {
		s := (*h)[:n]
		*h = nil
		headerPool.Put(h)
		return s
	}
	return make([]float32, n, 1<<c)
}

// PutScratch returns a buffer obtained from GetScratch (or any float32
// slice the caller owns outright) to the pool. The caller must not touch
// the slice afterwards.
func PutScratch(s []float32) {
	cp := cap(s)
	if cp < 1<<scratchMinBits {
		return
	}
	c := bits.Len(uint(cp)) - 1 // floor(log2(cap))
	if c >= len(scratchPools) {
		return
	}
	h := headerPool.Get().(*[]float32)
	*h = s[:cp]
	scratchPools[c].Put(h)
}

// Float64 scratch: the same size-classed pools for the double-precision
// accumulators of the server reductions (WeightedAverage). Contents are
// unspecified — reductions that start from zero must clear the buffer,
// which also keeps them bitwise identical to a freshly allocated one
// (no stale -0 or NaN can leak into an accumulation chain).

var scratchPoolsF64 [32]sync.Pool

var headerPoolF64 = sync.Pool{New: func() any { return new([]float64) }}

// GetScratchF64 returns a float64 buffer of length n with unspecified
// contents. Pair every call with PutScratchF64.
func GetScratchF64(n int) []float64 {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if c < scratchMinBits {
		c = scratchMinBits
	}
	if c >= len(scratchPoolsF64) {
		return make([]float64, n)
	}
	if h, _ := scratchPoolsF64[c].Get().(*[]float64); h != nil {
		s := (*h)[:n]
		*h = nil
		headerPoolF64.Put(h)
		return s
	}
	return make([]float64, n, 1<<c)
}

// PutScratchF64 returns a buffer obtained from GetScratchF64 to the pool.
func PutScratchF64(s []float64) {
	cp := cap(s)
	if cp < 1<<scratchMinBits {
		return
	}
	c := bits.Len(uint(cp)) - 1
	if c >= len(scratchPoolsF64) {
		return
	}
	h := headerPoolF64.Get().(*[]float64)
	*h = s[:cp]
	scratchPoolsF64[c].Put(h)
}
