package comm

import (
	"encoding/binary"
	"errors"

	"spatl/internal/tensor"
)

// ErrNotDense is ViewDense's one error: the payload is not a dense
// vector at either precision, or its declared count does not match its
// length. A fixed value, so rejecting a hostile upload allocates nothing.
var ErrNotDense = errors.New("comm: not a well-formed dense payload")

// ErrNotSparseVals is ViewSparseVals' one error, ErrNotDense's twin for
// values-only frames.
var ErrNotSparseVals = errors.New("comm: not a well-formed values-only payload")

// DenseView is a dense-layout payload at either precision — a dense
// vector, or a values-only frame, which is the same layout under its own
// magic bytes — whose header (magic, count, exact length) has been
// checked and whose values are still the wire bytes. The server's dense
// aggregators fold from it directly (AccumScaled), so an upload is read
// once, where it arrived, with no intermediate []float32. A view aliases
// the payload it was taken of and is valid only as long as those bytes
// are.
type DenseView struct {
	body []byte // values, little-endian: 4 bytes each, 2 when half
	half bool
}

// ViewDense checks buf's header and returns a view of its values. It is
// the whole validation of a dense payload at either precision —
// DecodeDenseAnyInto is ViewDense plus a decode — and takes no buffer,
// pooled or otherwise.
func ViewDense(buf []byte) (DenseView, error) {
	return viewValues(buf, magicDense, magicDenseF16, ErrNotDense)
}

// ViewSparseVals is ViewDense for a values-only frame at either
// precision.
func ViewSparseVals(buf []byte) (DenseView, error) {
	return viewValues(buf, magicSparseVals, magicSparseValsF16, ErrNotSparseVals)
}

// viewValues checks a dense-layout header — tag f32 or f16, a uint32
// count, exactly that many values — and views the values, or returns
// bad.
func viewValues(buf []byte, f32, f16 byte, bad error) (DenseView, error) {
	if len(buf) < 5 {
		return DenseView{}, bad
	}
	n, size := uint64(binary.LittleEndian.Uint32(buf[1:5])), uint64(len(buf))
	switch {
	case buf[0] == f32 && size == 5+4*n:
		return DenseView{body: buf[5:]}, nil
	case buf[0] == f16 && size == 5+2*n:
		return DenseView{body: buf[5:], half: true}, nil
	}
	return DenseView{}, bad
}

// DecodeDensePooled decodes a dense payload that must hold exactly n
// values into a GetF32 buffer, which the caller returns with PutF32. The
// header and the count are checked on the bytes first, so a malformed or
// mis-sized payload is refused with ErrNotDense before any buffer leaves
// the pool: a refusal costs zero pool traffic.
func DecodeDensePooled(buf []byte, n int) ([]float32, error) {
	v, err := ViewDense(buf)
	if err != nil || v.Len() != n {
		return nil, ErrNotDense
	}
	return v.decodeInto(GetF32(n)), nil
}

// DecodeSparseValsPooled is DecodeDensePooled for a values-only frame:
// the count is checked before a buffer leaves the pool.
func DecodeSparseValsPooled(buf []byte, n int) ([]float32, error) {
	v, err := ViewSparseVals(buf)
	if err != nil || v.Len() != n {
		return nil, ErrNotSparseVals
	}
	return v.decodeInto(GetF32(n)), nil
}

// Len returns the number of values in the payload.
func (d DenseView) Len() int {
	if d.half {
		return len(d.body) / 2
	}
	return len(d.body) / 4
}

// AccumScaled computes acc[j] += w*float64(x[lo+j]) over the payload's
// values x, for j in [0, len(acc)) — the fused decode→fold step,
// bitwise equal to DecodeDenseAnyInto followed by tensor.VecAccumScaled
// on the same window. float32 payloads run tensor.VecAccumScaledLE on
// the wire bytes in place; binary16 payloads widen through a small stack
// buffer, so neither precision touches the heap or a pool.
func (d DenseView) AccumScaled(acc []float64, lo int, w float64) {
	if !d.half {
		tensor.VecAccumScaledLE(acc, d.body[4*lo:], w)
		return
	}
	var wide [256]float32
	src := d.body[2*lo:]
	for len(acc) > 0 {
		n := min(len(acc), len(wide))
		getF16Bulk(wide[:n], src)
		tensor.VecAccumScaled(acc[:n], wide[:n], w)
		acc, src = acc[n:], src[2*n:]
	}
}
