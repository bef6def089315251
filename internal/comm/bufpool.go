package comm

import (
	"math/bits"
	"sync"
)

// Payload buffer pools. A federated round serializes and deserializes one
// model-sized payload per client per direction; without recycling that is
// O(clients × model) garbage per round. GetBuf/PutBuf (bytes, for encoded
// payloads) and GetF32/PutF32 (float32, for decoded state vectors) recycle
// those buffers through power-of-two size classes backed by sync.Pool —
// the same design as tensor's scratch pool, duplicated here so comm stays
// dependency-free.
//
// Ownership rules match tensor's scratch pool: a buffer obtained from
// GetBuf/GetF32 is exclusively owned by the caller until the matching Put;
// it must not be retained or aliased afterwards. Contents are unspecified
// at Get; callers that accumulate must zero first. Putting a buffer the
// caller allocated itself is also fine — the pool only looks at capacity.

// poolMinBits is the smallest pooled size class (64 elements); tinier
// buffers are too cheap to track.
const poolMinBits = 6

var (
	bytePools [32]sync.Pool
	f32Pools  [32]sync.Pool

	byteHeaderPool = sync.Pool{New: func() any { return new([]byte) }}
	f32HeaderPool  = sync.Pool{New: func() any { return new([]float32) }}
)

// sizeClass returns ceil(log2(n)) clamped to the pooled range, or -1 when
// n is too large to pool.
func sizeClass(n int) int {
	c := bits.Len(uint(n - 1))
	if c < poolMinBits {
		c = poolMinBits
	}
	if c >= len(bytePools) {
		return -1
	}
	return c
}

// GetBuf returns a byte buffer of length n with unspecified contents,
// drawn from the payload pool when possible. Pair with PutBuf.
func GetBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	if h, _ := bytePools[c].Get().(*[]byte); h != nil {
		b := (*h)[:n]
		*h = nil
		byteHeaderPool.Put(h)
		return b
	}
	return make([]byte, n, 1<<c)
}

// PutBuf returns a buffer obtained from GetBuf (or any byte slice the
// caller owns outright) to the pool. The caller must not touch the slice
// afterwards.
func PutBuf(b []byte) {
	cp := cap(b)
	if cp < 1<<poolMinBits {
		return
	}
	c := bits.Len(uint(cp)) - 1 // floor(log2(cap))
	if c >= len(bytePools) {
		return
	}
	h := byteHeaderPool.Get().(*[]byte)
	*h = b[:cp]
	bytePools[c].Put(h)
}

// GetF32 returns a float32 buffer of length n with unspecified contents,
// drawn from the payload pool when possible. Pair with PutF32.
func GetF32(n int) []float32 {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	if c < 0 {
		return make([]float32, n)
	}
	if h, _ := f32Pools[c].Get().(*[]float32); h != nil {
		s := (*h)[:n]
		*h = nil
		f32HeaderPool.Put(h)
		return s
	}
	return make([]float32, n, 1<<c)
}

// PutF32 returns a buffer obtained from GetF32 (or any float32 slice the
// caller owns outright) to the pool. The caller must not touch the slice
// afterwards.
func PutF32(s []float32) {
	cp := cap(s)
	if cp < 1<<poolMinBits {
		return
	}
	c := bits.Len(uint(cp)) - 1
	if c >= len(f32Pools) {
		return
	}
	h := f32HeaderPool.Get().(*[]float32)
	*h = s[:cp]
	f32Pools[c].Put(h)
}

// sparsePool recycles decode-target Sparse headers with their Ranges
// arrays.
var sparsePool = sync.Pool{New: func() any { return new(Sparse) }}

// GetSparse returns a pooled Sparse to decode an n-byte sparse payload
// into: Values is a GetF32 buffer with room for every value, and the
// Ranges array DecodeSparseInto refills is the header's own. Pair with
// PutSparse.
func GetSparse(n int) *Sparse {
	s := sparsePool.Get().(*Sparse)
	s.Values = GetF32(n / 4)[:0]
	return s
}

// PutSparse releases a Sparse from GetSparse: its Values go back to the
// payload pool, the header and its Ranges array to the header pool. A
// nil s is ignored; nothing may touch s afterwards.
func PutSparse(s *Sparse) {
	if s == nil {
		return
	}
	PutF32(s.Values)
	s.Values = nil
	sparsePool.Put(s)
}
