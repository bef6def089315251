package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
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
// convolution backward pass). Layer arrays (Reuse, Recycle) are drawn
// from the same pools with the same unspecified contents: an activation a
// training pass keeps is its layer's until the model is released, a
// gradient or an evaluation activation until the container that received
// it has passed it on. GetScratch contents are unspecified; callers that
// accumulate must zero first.

// scratchMinBits is the smallest pooled size class (64 floats); tinier
// requests are allocated directly, they are too cheap to track.
const scratchMinBits = 6

// scratchPools[c] holds released buffers with floor(log2(cap)) == c, so
// every buffer in class c has cap ≥ 2^c. GetScratch(n) draws from class
// ceil(log2(n)), guaranteeing cap ≥ n for any hit.
var scratchPools [32]sync.Pool

// scratchOut is the bytes of pooled size-class arrays GetScratch has
// handed out and PutScratch has not taken back (process-wide), and
// scratchPeak its high-water mark since the last ResetScratchPeak. A
// memory gate reads them: what a pass holds and draws at once is the
// peak over it, a count that timing and the garbage collector cannot
// move.
var scratchOut, scratchPeak atomic.Int64

// trackScratch adds d bytes to scratchOut and raises the peak.
func trackScratch(d int64) {
	v := scratchOut.Add(d)
	for p := scratchPeak.Load(); v > p && !scratchPeak.CompareAndSwap(p, v); p = scratchPeak.Load() {
	}
}

// ScratchBytes returns the bytes of pooled arrays out of the scratch pool
// now and at most since the last ResetScratchPeak. Both count every
// goroutine's buffers; PutScratch of an array the pool never handed out
// lowers them, so read differences across a span of one's own work.
func ScratchBytes() (out, peak int64) { return scratchOut.Load(), scratchPeak.Load() }

// ResetScratchPeak starts a new high-water mark at the bytes out now.
func ResetScratchPeak() { scratchPeak.Store(scratchOut.Load()) }

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
	var s []float32
	if h, _ := scratchPools[c].Get().(*[]float32); h != nil {
		s = (*h)[:n]
		*h = nil
		headerPool.Put(h)
	} else {
		s = make([]float32, n, 1<<c)
	}
	trackScratch(4 * int64(cap(s)))
	return s
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
	trackScratch(-4 * int64(cp))
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
