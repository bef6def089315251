package comm

import (
	"sync"

	"spatl/internal/tensor"
)

// Payload buffer pools. A federated round serializes and deserializes one
// model-sized payload per client per direction; without recycling that is
// O(clients × model) garbage per round. GetBuf/PutBuf (bytes, for encoded
// payloads) and GetF32/PutF32 (float32, for decoded state vectors) recycle
// those buffers through tensor.Pool instances of their own, separate from
// tensor's scratch pool, so payload buffers and layer arrays keep apart
// reuse patterns and peaks. Ownership rules are tensor.Pool's.
var (
	bytePool tensor.Pool[byte]
	f32Pool  tensor.Pool[float32]
)

// GetBuf returns a byte buffer of length n with unspecified contents,
// drawn from the payload pool when possible. Pair with PutBuf.
func GetBuf(n int) []byte { return bytePool.Get(n) }

// PutBuf returns a buffer obtained from GetBuf (or any byte slice the
// caller owns outright) to the pool. The caller must not touch the slice
// afterwards.
func PutBuf(b []byte) { bytePool.Put(b) }

// GetF32 returns a float32 buffer of length n with unspecified contents,
// drawn from the payload pool when possible. Pair with PutF32.
func GetF32(n int) []float32 { return f32Pool.Get(n) }

// PutF32 returns a buffer obtained from GetF32 (or any float32 slice the
// caller owns outright) to the pool. The caller must not touch the slice
// afterwards.
func PutF32(s []float32) { f32Pool.Put(s) }

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
