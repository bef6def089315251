package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pool recycles slices of E through power-of-two size classes backed by
// sync.Pool, so a steady state of Get/Put pairs allocates nothing while
// idle memory stays reclaimable by the GC. The zero value is ready to
// use. The scratch pool below and comm's payload pools are instances.
//
// Ownership: a slice from Get is exclusively the caller's until Put; it
// must not be retained or aliased afterwards. Contents at Get are
// unspecified; callers that accumulate must zero first. Put also takes a
// slice the caller allocated itself: the pool looks only at capacity.
type Pool[E any] struct {
	// classes[c] holds released slices with floor(log2(cap)) == c, so
	// every slice in class c has cap ≥ 2^c. Get(n) draws from class
	// ceil(log2(n)), guaranteeing cap ≥ n for any hit.
	classes [32]sync.Pool
	// headers recycles the slice headers threaded through classes, so a
	// Get/Put cycle allocates nothing at all.
	headers sync.Pool
	// track, when set, is told the capacity of every pooled slice Get
	// hands out, and its negation for every one Put takes back.
	track func(elems int)
}

// poolMinBits is the smallest pooled size class (64 elements); tinier
// requests are allocated directly, they are too cheap to track.
const poolMinBits = 6

// Get returns a slice of length n with unspecified contents, drawn from
// the pool when possible. Pair every call with Put.
func (p *Pool[E]) Get(n int) []E {
	if n <= 0 {
		return nil
	}
	c := max(bits.Len(uint(n-1)), poolMinBits) // ceil(log2(n))
	if c >= len(p.classes) {
		return make([]E, n)
	}
	var s []E
	if h, _ := p.classes[c].Get().(*[]E); h != nil {
		s = (*h)[:n]
		*h = nil
		p.headers.Put(h)
	} else {
		s = make([]E, n, 1<<c)
	}
	if p.track != nil {
		p.track(cap(s))
	}
	return s
}

// Put returns s to the pool. The caller must not touch s afterwards.
func (p *Pool[E]) Put(s []E) {
	cp := cap(s)
	if cp < 1<<poolMinBits {
		return
	}
	c := bits.Len(uint(cp)) - 1 // floor(log2(cap))
	if c >= len(p.classes) {
		return
	}
	if p.track != nil {
		p.track(-cp)
	}
	h, _ := p.headers.Get().(*[]E)
	if h == nil {
		h = new([]E)
	}
	*h = s[:cp]
	p.classes[c].Put(h)
}

// Scratch buffers serve the transient slices the training hot path needs
// thousands of times per round (im2col columns, gradient panels, partial
// weight gradients), through one Pool.
//
// Ownership rules are Pool's: a buffer obtained from GetScratch is
// exclusively owned by the caller until PutScratch. Scratch may be held
// across function calls within one logical operation (e.g. for the
// duration of a convolution backward pass). Layer arrays (Reuse, Recycle)
// are drawn from the same pool with the same unspecified contents: an
// activation a training pass keeps is its layer's until the model is
// released, a gradient or an evaluation activation until the container
// that received it has passed it on.

// scratchPool is the pool behind GetScratch, counting its bytes out.
var scratchPool = Pool[float32]{track: func(n int) { trackScratch(4 * int64(n)) }}

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

// GetScratch returns a float32 buffer of length n with unspecified
// contents, drawn from the scratch pool when possible. Pair every call
// with PutScratch.
func GetScratch(n int) []float32 { return scratchPool.Get(n) }

// PutScratch returns a buffer obtained from GetScratch (or any float32
// slice the caller owns outright) to the pool. The caller must not touch
// the slice afterwards.
func PutScratch(s []float32) { scratchPool.Put(s) }
