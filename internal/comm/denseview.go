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

// DenseView is a dense payload at either precision whose header — magic,
// count, exact length — has been checked and whose values are still the
// wire bytes. The server's dense aggregators fold from it directly
// (AccumScaled), so an upload is read once, where it arrived, with no
// intermediate []float32. A view aliases the payload it was taken of
// and is valid only as long as those bytes are.
type DenseView struct {
	body []byte // values, little-endian: 4 bytes each, 2 when half
	half bool
}

// ViewDense checks buf's header and returns a view of its values. It is
// the whole validation of a dense payload at either precision —
// DecodeDenseAnyInto is ViewDense plus a decode — and takes no buffer,
// pooled or otherwise.
func ViewDense(buf []byte) (DenseView, error) {
	if len(buf) < 5 {
		return DenseView{}, ErrNotDense
	}
	n, size := uint64(binary.LittleEndian.Uint32(buf[1:5])), uint64(len(buf))
	switch {
	case buf[0] == magicDense && size == 5+4*n:
		return DenseView{body: buf[5:]}, nil
	case buf[0] == magicDenseF16 && size == 5+2*n:
		return DenseView{body: buf[5:], half: true}, nil
	}
	return DenseView{}, ErrNotDense
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
