package comm

import (
	"bytes"
	"testing"
)

// FuzzDecodeDense ensures arbitrary byte input never panics the dense
// view and decoder a server runs on an upload, and that valid float32
// encodings round-trip.
func FuzzDecodeDense(f *testing.F) {
	f.Add(EncodeDense([]float32{1, 2, 3}))
	f.Add([]byte{})
	f.Add([]byte{magicDense, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(EncodeDenseF16Into(nil, []float32{1, 2, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The header-only check must accept exactly what the scalar
		// reference decoders (the format's definition) accept.
		ref, errRef := RefDecodeDense(data)
		if errRef != nil {
			ref, errRef = RefDecodeDenseF16(data)
		}
		if v, errView := ViewDense(data); (errView == nil) != (errRef == nil) || (errView == nil && v.Len() != len(ref)) {
			t.Fatalf("ViewDense (%d values, %v) disagrees with the reference decoders (%d values, %v)", v.Len(), errView, len(ref), errRef)
		}
		vals, err := DecodeDenseAnyInto(nil, data)
		if err != nil {
			return
		}
		if !bitwiseEqual(vals, ref) {
			t.Fatalf("DecodeDenseAnyInto differs from the reference decoders")
		}
		if data[0] != magicDense {
			return
		}
		if re := EncodeDense(vals); !bytes.Equal(re, data) {
			t.Fatalf("valid dense payload did not round-trip")
		}
	})
}

// FuzzDecodeSparse ensures arbitrary byte input at either precision
// never panics DecodeSparseAnyInto and that accepted payloads validate. The corpus seeds the malformed shapes the
// mask-static wire path must survive: a frame truncated mid-index-block
// (range count promises more runs than the buffer holds) and a
// values-only frame arriving where a full sparse frame is expected.
func FuzzDecodeSparse(f *testing.F) {
	f.Add(EncodeSparse(&Sparse{Ranges: []Range{{0, 2}}, Values: []float32{1, 2}}))
	f.Add([]byte{magicSparse, 0, 0, 0, 0})
	// Truncated index block: claims 4 ranges, carries half of one.
	f.Add([]byte{magicSparse, 4, 0, 0, 0, 7, 0, 0, 0})
	f.Add(EncodeSparseValsInto(nil, []float32{1, 2, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Sparse{}
		if err := DecodeSparseAnyInto(s, data); err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("decoded sparse payload fails validation: %v", err)
		}
	})
}

// FuzzDecodeHeteroBcast ensures arbitrary byte input never panics the
// cluster-broadcast decoder and that valid encodings round-trip. The
// corpus seeds the malformed shapes a hetero client must survive: a
// frame truncated inside the assignment table, a zero-cluster header,
// and an assignment pointing past the cluster count.
func FuzzDecodeHeteroBcast(f *testing.F) {
	f.Add(EncodeHeteroBcast(&HeteroBcast{
		Clusters: 2, Assign: []uint8{0, 1, 0}, StateLen: 2,
		Models: []float32{1, 2, 3, 4},
	}))
	f.Add([]byte{})
	// Truncated assignment: claims 8 clients, carries one byte.
	f.Add([]byte{magicHeteroBcast, 2, 8, 0, 0, 0, 1})
	// Zero clusters with a plausible tail.
	f.Add([]byte{magicHeteroBcast, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	// Assignment out of range for the declared cluster count.
	f.Add([]byte{magicHeteroBcast, 1, 1, 0, 0, 0, 5, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &HeteroBcast{}
		if err := DecodeHeteroBcastInto(h, data); err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("decoded hetero broadcast fails validation: %v", err)
		}
		if re := EncodeHeteroBcast(h); !bytes.Equal(re, data) {
			t.Fatalf("valid hetero broadcast did not round-trip")
		}
	})
}

// FuzzDecodeHeteroUpdate ensures arbitrary byte input never panics the
// slice-upload decoder and that accepted payloads validate. The corpus
// seeds the malformed shapes the hetero reduce path counts in
// Dropped(): a truncated slice spec (range count promises more runs
// than the buffer holds) and an unknown-width header over an otherwise
// well-formed frame — the decoder passes the latter through (width
// validation is the aggregator's job, against its own width table), so
// the seed documents that the frame layer alone cannot reject it.
func FuzzDecodeHeteroUpdate(f *testing.F) {
	f.Add(EncodeHeteroUpdateInto(nil, &HeteroUpdate{
		Cluster: 1, WidthMilli: 500,
		Sparse: Sparse{Ranges: []Range{{0, 2}}, Values: []float32{1, 2}},
	}))
	f.Add([]byte{})
	// Truncated slice spec: claims 4 ranges, carries half of one.
	f.Add([]byte{magicHeteroUpdate, 0, 250, 0, 4, 0, 0, 0, 7, 0, 0, 0})
	// Unknown width (3000‰) on a structurally valid frame.
	f.Add(EncodeHeteroUpdateInto(nil, &HeteroUpdate{
		Cluster: 0, WidthMilli: 3000,
		Sparse: Sparse{Ranges: []Range{{0, 1}}, Values: []float32{9}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		u := &HeteroUpdate{}
		if err := DecodeHeteroUpdateInto(u, data); err != nil {
			return
		}
		if err := u.Validate(); err != nil {
			t.Fatalf("decoded hetero update fails validation: %v", err)
		}
		if re := EncodeHeteroUpdateInto(nil, u); !bytes.Equal(re, data) {
			t.Fatalf("valid hetero update did not round-trip")
		}
	})
}

// FuzzDecodeSparseVals ensures arbitrary byte input never panics the
// values-only view and decode a server runs on an upload, and that valid
// f32 encodings round-trip.
func FuzzDecodeSparseVals(f *testing.F) {
	f.Add(EncodeSparseValsInto(nil, []float32{1, 2, 3}))
	f.Add(EncodeSparseValsF16Into(nil, []float32{1, 2, 3}))
	f.Add([]byte{magicSparseVals, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{magicSparseValsF16, 2, 0, 0, 0, 1})
	// A full sparse frame and a truncated index block must both be
	// rejected, never scribbled through.
	f.Add(EncodeSparse(&Sparse{Ranges: []Range{{0, 2}}, Values: []float32{1, 2}}))
	f.Add([]byte{magicSparse, 4, 0, 0, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ViewSparseVals(data)
		if err != nil {
			return
		}
		vals := v.decodeInto(nil)
		if len(data) > 0 && data[0] == magicSparseVals {
			if re := EncodeSparseValsInto(nil, vals); !bytes.Equal(re, data) {
				t.Fatalf("valid values-only payload did not round-trip")
			}
		}
	})
}
