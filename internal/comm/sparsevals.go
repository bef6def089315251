package comm

import "encoding/binary"

// Values-only sparse frames: once both ends of a mask-static federation
// (algo.SSFL) have agreed on the index ranges, re-shipping them every
// round is pure overhead — the ranges are decided once at mask agreement
// and never change until the federation ends. These frames carry only
// the packed masked values; the receiver supplies the ranges it already
// holds. A full EncodeSparse frame travels exactly once per direction
// (the round after agreement); every later round is values-only.
//
// As with the other codecs, the scalar reference implementations in
// ref.go define the format; the bulk implementations here are
// bitwise-equivalence tested against them.

const (
	magicSparseVals    = 0x56 // 'V'
	magicSparseValsF16 = 0x76 // 'v'
)

// FrameKind classifies a payload's frame family (either precision).
type FrameKind int

// Frame families, one per magic-byte pair (the hetero frames are
// single-precision only, so those two families are one magic each).
const (
	FrameUnknown FrameKind = iota
	FrameDense
	FrameSparse
	FrameSparseVals
	FrameHeteroBcast
	FrameHeteroUpdate
)

// KindOf sniffs a payload's frame family from its magic byte, so a
// protocol whose phases use different frame kinds (algo.SSFL) can
// dispatch without attempting decodes.
func KindOf(buf []byte) FrameKind {
	if len(buf) == 0 {
		return FrameUnknown
	}
	switch buf[0] {
	case magicDense, magicDenseF16:
		return FrameDense
	case magicSparse, magicSparseF16:
		return FrameSparse
	case magicSparseVals, magicSparseValsF16:
		return FrameSparseVals
	case magicHeteroBcast:
		return FrameHeteroBcast
	case magicHeteroUpdate:
		return FrameHeteroUpdate
	}
	return FrameUnknown
}

// SparseValsLen returns the encoded size of an n-value values-only frame
// — useful for pre-sizing pooled buffers.
func SparseValsLen(n int) int { return 1 + 4 + 4*n }

// SparseValsF16Len returns the encoded size of an n-value half-precision
// values-only frame.
func SparseValsF16Len(n int) int { return 1 + 4 + 2*n }

// EncodeSparseValsInto serializes a packed value vector into dst (reused
// when its capacity suffices, reallocated otherwise): tag, uint32 count,
// little-endian float32 values. The index ranges are deliberately absent
// — the receiver must already hold them.
func EncodeSparseValsInto(dst []byte, values []float32) []byte {
	buf := sizeBytes(dst, SparseValsLen(len(values)))
	buf[0] = magicSparseVals
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(values)))
	putF32Bulk(buf[5:], values)
	return buf
}

// EncodeSparseValsF16Into is EncodeSparseValsInto at half precision.
func EncodeSparseValsF16Into(dst []byte, values []float32) []byte {
	buf := sizeBytes(dst, SparseValsF16Len(len(values)))
	buf[0] = magicSparseValsF16
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(values)))
	putF16Bulk(buf[5:], values)
	return buf
}

// ScatterCopy overwrites the covered runs of dst with the packed values,
// run by run — the inverse of gatherValues. values must hold exactly as
// many elements as ranges index; a mismatch leaves dst untouched.
func ScatterCopy(dst []float32, values []float32, ranges []Range) bool {
	n := 0
	for _, r := range ranges {
		n += int(r.Len)
	}
	if n != len(values) {
		return false
	}
	off := 0
	for _, r := range ranges {
		off += copy(dst[r.Start:r.Start+r.Len], values[off:])
	}
	return true
}

// ComplementRanges returns the maximal runs of [0, n) NOT covered by
// ranges (which must be sorted, non-overlapping and within bounds, as
// Validate enforces). A mask-static client zeroes its local state over
// the complement so the model is exactly the agreed sub-network.
func ComplementRanges(ranges []Range, n int) []Range {
	out := make([]Range, 0, len(ranges)+1)
	next := uint32(0)
	for _, r := range ranges {
		if r.Start > next {
			out = append(out, Range{Start: next, Len: r.Start - next})
		}
		next = r.Start + r.Len
	}
	if int(next) < n {
		out = append(out, Range{Start: next, Len: uint32(n) - next})
	}
	return out
}

// ZeroRanges zeroes the covered runs of dst.
func ZeroRanges(dst []float32, ranges []Range) {
	for _, r := range ranges {
		run := dst[r.Start : r.Start+r.Len]
		for i := range run {
			run[i] = 0
		}
	}
}
