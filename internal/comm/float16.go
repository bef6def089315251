package comm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Half-precision payloads: IEEE 754 binary16 encodings of the dense and
// sparse payloads, halving wire volume at ~3 decimal digits of
// precision. Federated averaging is robust to this quantization; the
// fl.Config.HalfPrecision switch enables it end to end. This is an
// extension beyond the paper (which ships float32), composable with
// salient selection.
//
// As with the float32 codecs, the scalar reference implementations live
// in ref.go; the bulk implementations here convert eight values per loop
// pass, packing four halves into each 64-bit little-endian word.

const (
	magicDenseF16  = 0x68 // 'h'
	magicSparseF16 = 0x73 // 's'
)

// DenseF16Len returns the encoded size of an n-element dense f16 payload.
func DenseF16Len(n int) int { return 1 + 4 + 2*n }

// EncodedLenF16 returns the size of the payload EncodeSparseF16Into produces.
func (s *Sparse) EncodedLenF16() int {
	return 1 + 4 + 8*len(s.Ranges) + 4 + 2*len(s.Values)
}

// Float32ToF16 converts to IEEE 754 binary16 (round-to-nearest-even),
// with overflow clamping to ±Inf and subnormal flushing.
func Float32ToF16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xFF) - 127 + 15
	mant := bits & 0x7FFFFF

	switch {
	case int32(bits>>23&0xFF) == 0xFF: // Inf/NaN
		if mant != 0 {
			return sign | 0x7E00 // NaN
		}
		return sign | 0x7C00 // Inf
	case exp >= 0x1F: // overflow → Inf
		return sign | 0x7C00
	case exp <= 0:
		// Subnormal or underflow.
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		// Round to nearest.
		if mant>>(shift-1)&1 != 0 {
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp)<<10 | uint16(mant>>13)
		// Round to nearest even on the dropped bits.
		if mant&0x1FFF > 0x1000 || (mant&0x1FFF == 0x1000 && half&1 == 1) {
			half++
		}
		return half
	}
}

// F16ToFloat32 converts an IEEE 754 binary16 value to float32.
func F16ToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case exp == 0x1F:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7F800000)
		}
		return math.Float32frombits(sign | 0x7FC00000)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// putF16Bulk converts vals to binary16 and stores them little-endian into
// dst (len(dst) ≥ 2*len(vals)), eight values per pass, four packed per
// 64-bit store.
func putF16Bulk(dst []byte, vals []float32) {
	for len(vals) >= 8 {
		d := dst[:16]
		binary.LittleEndian.PutUint64(d[0:8],
			uint64(Float32ToF16(vals[0]))|uint64(Float32ToF16(vals[1]))<<16|
				uint64(Float32ToF16(vals[2]))<<32|uint64(Float32ToF16(vals[3]))<<48)
		binary.LittleEndian.PutUint64(d[8:16],
			uint64(Float32ToF16(vals[4]))|uint64(Float32ToF16(vals[5]))<<16|
				uint64(Float32ToF16(vals[6]))<<32|uint64(Float32ToF16(vals[7]))<<48)
		dst = dst[16:]
		vals = vals[8:]
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint16(dst[2*i:], Float32ToF16(v))
	}
}

// getF16Bulk loads len(out) little-endian binary16 values from src and
// widens them to float32, eight per pass, four unpacked per 64-bit load.
func getF16Bulk(out []float32, src []byte) {
	for len(out) >= 8 {
		s := src[:16]
		u0 := binary.LittleEndian.Uint64(s[0:8])
		u1 := binary.LittleEndian.Uint64(s[8:16])
		out[0] = F16ToFloat32(uint16(u0))
		out[1] = F16ToFloat32(uint16(u0 >> 16))
		out[2] = F16ToFloat32(uint16(u0 >> 32))
		out[3] = F16ToFloat32(uint16(u0 >> 48))
		out[4] = F16ToFloat32(uint16(u1))
		out[5] = F16ToFloat32(uint16(u1 >> 16))
		out[6] = F16ToFloat32(uint16(u1 >> 32))
		out[7] = F16ToFloat32(uint16(u1 >> 48))
		out = out[8:]
		src = src[16:]
	}
	for i := range out {
		out[i] = F16ToFloat32(binary.LittleEndian.Uint16(src[2*i:]))
	}
}

// EncodeDenseF16Into serializes a flat vector at half precision into dst
// (reused when its capacity suffices, reallocated otherwise). Returns the
// encoded slice.
func EncodeDenseF16Into(dst []byte, values []float32) []byte {
	buf := sizeBytes(dst, DenseF16Len(len(values)))
	buf[0] = magicDenseF16
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(values)))
	putF16Bulk(buf[5:], values)
	return buf
}

// EncodeSparseF16Into serializes a sparse payload with half-precision
// values (index ranges stay 32-bit) into dst (reused when its capacity
// suffices, reallocated otherwise).
func EncodeSparseF16Into(dst []byte, s *Sparse) []byte {
	buf := sizeBytes(dst, s.EncodedLenF16())
	buf[0] = magicSparseF16
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(s.Ranges)))
	off := 5
	for _, r := range s.Ranges {
		binary.LittleEndian.PutUint64(buf[off:off+8], uint64(r.Start)|uint64(r.Len)<<32)
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(s.Values)))
	off += 4
	putF16Bulk(buf[off:], s.Values)
	return buf
}

// decodeSparseF16Into parses an EncodeSparseF16Into payload into s,
// reusing its buffers as DecodeSparseInto does.
func decodeSparseF16Into(s *Sparse, buf []byte) error {
	if len(buf) < 5 || buf[0] != magicSparseF16 {
		return fmt.Errorf("comm: not a sparse-f16 payload")
	}
	nr := wireCount(buf[1:5], 8, len(buf))
	off := 5
	if len(buf) < off+8*nr+4 {
		return fmt.Errorf("comm: sparse-f16 payload truncated in ranges")
	}
	ranges := s.Ranges[:0]
	if cap(ranges) < nr {
		ranges = make([]Range, 0, nr)
	}
	for i := 0; i < nr; i++ {
		u := binary.LittleEndian.Uint64(buf[off : off+8])
		ranges = append(ranges, Range{Start: uint32(u), Len: uint32(u >> 32)})
		off += 8
	}
	nv := wireCount(buf[off:], 2, len(buf))
	off += 4
	if len(buf) != off+2*nv {
		return fmt.Errorf("comm: sparse-f16 payload length %d, want %d", len(buf), off+2*nv)
	}
	out := Sparse{Ranges: ranges, Values: sizeF32(s.Values, nv)}
	getF16Bulk(out.Values, buf[off:])
	if err := out.Validate(); err != nil {
		return err
	}
	*s = out
	return nil
}

// DecodeDenseAnyInto parses a dense payload at either precision into dst
// (reused when its capacity suffices, reallocated otherwise). Validation
// is ViewDense's; a refused payload returns ErrNotDense.
func DecodeDenseAnyInto(dst []float32, buf []byte) ([]float32, error) {
	v, err := ViewDense(buf)
	if err != nil {
		return nil, err
	}
	return v.decodeInto(dst), nil
}

// decodeInto decodes the viewed values into dst (reused when its capacity
// suffices, reallocated otherwise) — the second half of
// DecodeDenseAnyInto, for callers that check the view before they take a
// buffer to decode into.
func (d DenseView) decodeInto(dst []float32) []float32 {
	out := sizeF32(dst, d.Len())
	if d.half {
		getF16Bulk(out, d.body)
	} else {
		getF32Bulk(out, d.body)
	}
	return out
}

// DecodeSparseAnyInto parses a sparse payload at either precision into s,
// reusing its buffers as DecodeSparseInto does.
func DecodeSparseAnyInto(s *Sparse, buf []byte) error {
	if len(buf) > 0 && buf[0] == magicSparseF16 {
		return decodeSparseF16Into(s, buf)
	}
	return DecodeSparseInto(s, buf)
}
