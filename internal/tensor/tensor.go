// Package tensor implements the dense float32 tensor math that underpins
// the neural-network substrate. It is deliberately small: row-major dense
// tensors, one strided GEMM tile, im2col/col2im for convolution
// lowering, elementwise kernels and reductions. Everything is stdlib-only.
//
// Tensors are mutable value containers: the Data slice is shared by Wrap
// and copied by Clone. A header's shape changes only through Reuse and
// Wrap, which validate the element count.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Data  []float32
	shape []int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	own := append([]int(nil), shape...)
	return &Tensor{Data: make([]float32, elements(own)), shape: own}
}

// elements returns shape's element count and panics on a non-positive
// dimension. Only copies of shape are kept or formatted, so the variadic
// slice of New or Reuse never escapes: their callers build it on the
// stack, and a Reuse hit allocates nothing.
func elements(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Reuse returns t with the given shape over an array whose contents are
// unspecified: t's own array when it has one large enough (re-sliced, the
// header reshaped in place), else one drawn from the scratch pool, an
// array too small going back to the pool. A nil t gets a new header. This
// is how a layer takes its output and input-gradient arrays: the array is
// the layer's until it, or the container the tensor was returned to,
// hands it back with Recycle (or Release ends the pass), so t's array must
// be the caller's outright, and the caller must fully overwrite (or
// explicitly zero) what it reads back.
func Reuse(t *Tensor, shape ...int) *Tensor {
	if t != nil && t.Data != nil && slices.Equal(t.shape, shape) {
		return t
	}
	n := elements(shape)
	if t == nil {
		t = &Tensor{}
	}
	if cap(t.Data) >= n {
		t.Data = t.Data[:n]
	} else {
		PutScratch(t.Data)
		t.Data = GetScratch(n)
	}
	t.shape = append(t.shape[:0], shape...)
	return t
}

// Recycle returns t's array to the scratch pool and leaves t without one,
// so t's next Reuse draws a pooled array; a nil t or one without an array
// is left alone. The array must be t's outright (Reuse's), and nothing may
// read it afterwards.
func Recycle(t *Tensor) {
	if t != nil && t.Data != nil {
		PutScratch(t.Data)
		t.Data = nil
	}
}

// Wrap points the header t at data with the given shape, reshaped in
// place (a nil t gets a new header). data is used, not copied, and its
// length must equal the shape's element count. A layer that returns a
// view of an array it does not own (Flatten) holds one header and
// re-points it on every call, allocating nothing once the header exists.
func Wrap(t *Tensor, data []float32, shape ...int) *Tensor {
	if n := elements(shape); len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), append([]int(nil), shape...), n))
	}
	if t == nil {
		t = &Tensor{}
	}
	t.Data = data
	t.shape = append(t.shape[:0], shape...)
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets all elements to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// CopyFrom copies src's data into t. Shapes must have equal element count.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	copy(t.Data, src.Data)
}

// Randn fills t with N(0, std²) samples from rng.
func (t *Tensor) Randn(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// KaimingNormal fills t with He-normal initialization for a layer with the
// given fan-in (suitable for ReLU networks).
func (t *Tensor) KaimingNormal(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	t.Randn(rng, std)
}

// AddInPlace computes t += other elementwise.
func (t *Tensor) AddInPlace(other *Tensor) {
	checkSameLen(t, other, "AddInPlace")
	VecAdd(t.Data, other.Data)
}

// SubInPlace computes t -= other elementwise.
func (t *Tensor) SubInPlace(other *Tensor) {
	checkSameLen(t, other, "SubInPlace")
	VecSub(t.Data, other.Data)
}

// Scale computes t *= s.
func (t *Tensor) Scale(s float32) {
	VecScale(t.Data, s)
}

// Add returns t + other as a new tensor.
func (t *Tensor) Add(other *Tensor) *Tensor {
	out := t.Clone()
	out.AddInPlace(other)
	return out
}

// Sub returns t - other as a new tensor.
func (t *Tensor) Sub(other *Tensor) *Tensor {
	out := t.Clone()
	out.SubInPlace(other)
	return out
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// AbsSum returns the L1 norm of the flattened tensor.
func (t *Tensor) AbsSum() float64 {
	var s float64
	for _, v := range t.Data {
		s += math.Abs(float64(v))
	}
	return s
}

// Equal reports whether two tensors have identical shape and data.
func (t *Tensor) Equal(other *Tensor) bool {
	if len(t.shape) != len(other.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != other.shape[i] {
			return false
		}
	}
	for i := range t.Data {
		if t.Data[i] != other.Data[i] {
			return false
		}
	}
	return true
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}

func checkSameLen(a, b *Tensor, op string) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, len(a.Data), len(b.Data)))
	}
}
