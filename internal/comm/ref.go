package comm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reference codecs: the original one-word-at-a-time serializers retained
// as the ground truth the bulk codecs in comm.go / float16.go are
// verified against (see codec_ref_test.go). The wire format is defined
// by these functions; the bulk codecs must produce bitwise-identical
// bytes and decode to bitwise-identical values.

// RefEncodeDense serializes a flat float32 vector one word at a time.
func RefEncodeDense(values []float32) []byte {
	buf := make([]byte, 1+4+4*len(values))
	buf[0] = magicDense
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(values)))
	for i, v := range values {
		binary.LittleEndian.PutUint32(buf[5+4*i:], math.Float32bits(v))
	}
	return buf
}

// RefDecodeDense parses a dense payload one word at a time.
func RefDecodeDense(buf []byte) ([]float32, error) {
	if len(buf) < 5 || buf[0] != magicDense {
		return nil, fmt.Errorf("comm: not a dense payload")
	}
	n := wireCount(buf[1:5], 4, len(buf))
	if len(buf) != 5+4*n {
		return nil, fmt.Errorf("comm: dense payload length %d, want %d", len(buf), 5+4*n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[5+4*i:]))
	}
	return out, nil
}

// RefEncodeSparse serializes a sparse payload one word at a time.
func RefEncodeSparse(s *Sparse) []byte {
	buf := make([]byte, 1+4+8*len(s.Ranges)+4+4*len(s.Values))
	buf[0] = magicSparse
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(s.Ranges)))
	off := 5
	for _, r := range s.Ranges {
		binary.LittleEndian.PutUint32(buf[off:], r.Start)
		binary.LittleEndian.PutUint32(buf[off+4:], r.Len)
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(s.Values)))
	off += 4
	for _, v := range s.Values {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
		off += 4
	}
	return buf
}

// RefDecodeSparse parses a sparse payload one word at a time.
func RefDecodeSparse(buf []byte) (*Sparse, error) {
	if len(buf) < 5 || buf[0] != magicSparse {
		return nil, fmt.Errorf("comm: not a sparse payload")
	}
	nr := wireCount(buf[1:5], 8, len(buf))
	off := 5
	if len(buf) < off+8*nr+4 {
		return nil, fmt.Errorf("comm: sparse payload truncated in ranges")
	}
	s := &Sparse{Ranges: make([]Range, nr)}
	for i := range s.Ranges {
		s.Ranges[i] = Range{
			Start: binary.LittleEndian.Uint32(buf[off:]),
			Len:   binary.LittleEndian.Uint32(buf[off+4:]),
		}
		off += 8
	}
	nv := wireCount(buf[off:], 4, len(buf))
	off += 4
	if len(buf) != off+4*nv {
		return nil, fmt.Errorf("comm: sparse payload length %d, want %d", len(buf), off+4*nv)
	}
	s.Values = make([]float32, nv)
	for i := range s.Values {
		s.Values[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off+4*i:]))
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// RefEncodeSparseVals serializes a values-only sparse frame one word at
// a time.
func RefEncodeSparseVals(values []float32) []byte {
	buf := make([]byte, 1+4+4*len(values))
	buf[0] = magicSparseVals
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(values)))
	for i, v := range values {
		binary.LittleEndian.PutUint32(buf[5+4*i:], math.Float32bits(v))
	}
	return buf
}

// RefDecodeSparseVals parses a values-only frame one word at a time.
func RefDecodeSparseVals(buf []byte) ([]float32, error) {
	if len(buf) < 5 || buf[0] != magicSparseVals {
		return nil, fmt.Errorf("comm: not a sparse-values payload")
	}
	n := wireCount(buf[1:5], 4, len(buf))
	if len(buf) != 5+4*n {
		return nil, fmt.Errorf("comm: sparse-values payload length %d, want %d", len(buf), 5+4*n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[5+4*i:]))
	}
	return out, nil
}

// RefEncodeSparseValsF16 serializes a half-precision values-only frame
// one value at a time.
func RefEncodeSparseValsF16(values []float32) []byte {
	buf := make([]byte, 1+4+2*len(values))
	buf[0] = magicSparseValsF16
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(values)))
	for i, v := range values {
		binary.LittleEndian.PutUint16(buf[5+2*i:], Float32ToF16(v))
	}
	return buf
}

// RefDecodeSparseValsF16 parses a half-precision values-only frame one
// value at a time.
func RefDecodeSparseValsF16(buf []byte) ([]float32, error) {
	if len(buf) < 5 || buf[0] != magicSparseValsF16 {
		return nil, fmt.Errorf("comm: not a sparse-values-f16 payload")
	}
	n := wireCount(buf[1:5], 2, len(buf))
	if len(buf) != 5+2*n {
		return nil, fmt.Errorf("comm: sparse-values-f16 payload length %d, want %d", len(buf), 5+2*n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = F16ToFloat32(binary.LittleEndian.Uint16(buf[5+2*i:]))
	}
	return out, nil
}

// RefEncodeDenseF16 serializes a flat vector at half precision one value
// at a time.
func RefEncodeDenseF16(values []float32) []byte {
	buf := make([]byte, 1+4+2*len(values))
	buf[0] = magicDenseF16
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(values)))
	for i, v := range values {
		binary.LittleEndian.PutUint16(buf[5+2*i:], Float32ToF16(v))
	}
	return buf
}

// RefDecodeDenseF16 parses a dense-f16 payload one value at a time.
func RefDecodeDenseF16(buf []byte) ([]float32, error) {
	if len(buf) < 5 || buf[0] != magicDenseF16 {
		return nil, fmt.Errorf("comm: not a dense-f16 payload")
	}
	n := wireCount(buf[1:5], 2, len(buf))
	if len(buf) != 5+2*n {
		return nil, fmt.Errorf("comm: dense-f16 payload length %d, want %d", len(buf), 5+2*n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = F16ToFloat32(binary.LittleEndian.Uint16(buf[5+2*i:]))
	}
	return out, nil
}

// RefEncodeSparseF16 serializes a sparse payload at half precision one
// value at a time.
func RefEncodeSparseF16(s *Sparse) []byte {
	buf := make([]byte, 1+4+8*len(s.Ranges)+4+2*len(s.Values))
	buf[0] = magicSparseF16
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(s.Ranges)))
	off := 5
	for _, r := range s.Ranges {
		binary.LittleEndian.PutUint32(buf[off:], r.Start)
		binary.LittleEndian.PutUint32(buf[off+4:], r.Len)
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(s.Values)))
	off += 4
	for _, v := range s.Values {
		binary.LittleEndian.PutUint16(buf[off:], Float32ToF16(v))
		off += 2
	}
	return buf
}

// RefDecodeSparseF16 parses a sparse-f16 payload one value at a time.
func RefDecodeSparseF16(buf []byte) (*Sparse, error) {
	if len(buf) < 5 || buf[0] != magicSparseF16 {
		return nil, fmt.Errorf("comm: not a sparse-f16 payload")
	}
	nr := wireCount(buf[1:5], 8, len(buf))
	off := 5
	if len(buf) < off+8*nr+4 {
		return nil, fmt.Errorf("comm: sparse-f16 payload truncated in ranges")
	}
	s := &Sparse{Ranges: make([]Range, nr)}
	for i := range s.Ranges {
		s.Ranges[i] = Range{
			Start: binary.LittleEndian.Uint32(buf[off:]),
			Len:   binary.LittleEndian.Uint32(buf[off+4:]),
		}
		off += 8
	}
	nv := wireCount(buf[off:], 2, len(buf))
	off += 4
	if len(buf) != off+2*nv {
		return nil, fmt.Errorf("comm: sparse-f16 payload length %d, want %d", len(buf), off+2*nv)
	}
	s.Values = make([]float32, nv)
	for i := range s.Values {
		s.Values[i] = F16ToFloat32(binary.LittleEndian.Uint16(buf[off+2*i:]))
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
