package comm

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// codecLens covers the bulk loops' corner cases: empty, below/at/above
// the 8-wide unroll, and odd lengths that exercise every tail size.
var codecLens = []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 100, 255, 1000, 4097}

func randVals(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch rng.Intn(16) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = float32(math.Inf(1))
		case 2:
			v[i] = float32(1e-42) // f32 subnormal territory after f16 round-trip
		default:
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

// randSparse builds a valid sorted-run sparse payload with n values split
// into runs of odd lengths.
func randSparse(rng *rand.Rand, n int) *Sparse {
	s := &Sparse{Values: randVals(rng, n)}
	start := uint32(rng.Intn(3))
	left := n
	for left > 0 {
		l := 1 + rng.Intn(7)
		if l > left {
			l = left
		}
		s.Ranges = append(s.Ranges, Range{Start: start, Len: uint32(l)})
		start += uint32(l) + uint32(rng.Intn(4))
		left -= l
	}
	return s
}

// TestDenseBulkMatchesRef demands bitwise identity between the bulk and
// reference dense codecs in both directions at every tail length.
func TestDenseBulkMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range codecLens {
		v := randVals(rng, n)
		ref := RefEncodeDense(v)
		if got := EncodeDense(v); !bytes.Equal(got, ref) {
			t.Fatalf("n=%d: bulk EncodeDense differs from reference", n)
		}
		want, err := RefDecodeDense(ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeDenseAnyInto(nil, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(got, want) {
			t.Fatalf("n=%d: bulk DecodeDenseAnyInto differs from reference", n)
		}
		// NaN payloads are bits like any other: a signalling NaN with
		// its own payload at every 5th value survives the round trip.
		for i := 0; i < n; i += 5 {
			v[i] = math.Float32frombits(0xff800001 + uint32(i))
		}
		got, err = DecodeDenseAnyInto(nil, EncodeDense(v))
		if err != nil || !bitwiseEqual(got, v) {
			t.Fatalf("n=%d: NaN payload bits did not survive the round trip", n)
		}
		// A span written at a flat offset of a larger payload (byte
		// offset 5+4·off: never 4-aligned) lands where the reference
		// puts it and writes nothing else.
		for off := 0; off < 10; off++ {
			whole := randVals(rng, off+n+3)
			buf := EncodeDense(whole)
			copy(whole[off:], v)
			PutDenseValues(buf, off, v)
			if !bytes.Equal(buf, RefEncodeDense(whole)) {
				t.Fatalf("n=%d: span at offset %d differs from reference", n, off)
			}
		}
	}
}

// TestDenseF16BulkMatchesRef does the same for the half-precision codecs.
func TestDenseF16BulkMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range codecLens {
		v := randVals(rng, n)
		ref := RefEncodeDenseF16(v)
		if got := EncodeDenseF16Into(nil, v); !bytes.Equal(got, ref) {
			t.Fatalf("n=%d: bulk EncodeDenseF16Into differs from reference", n)
		}
		want, err := RefDecodeDenseF16(ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeDenseAnyInto(nil, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(got, want) {
			t.Fatalf("n=%d: bulk f16 decode differs from reference", n)
		}
	}
}

// TestSparseBulkMatchesRef covers the sparse codecs at both precisions.
func TestSparseBulkMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range codecLens {
		s := randSparse(rng, n)
		ref := RefEncodeSparse(s)
		if got := EncodeSparse(s); !bytes.Equal(got, ref) {
			t.Fatalf("n=%d: bulk EncodeSparse differs from reference", n)
		}
		want, err := RefDecodeSparse(ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeSparse(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !sparseEqual(got, want) {
			t.Fatalf("n=%d: bulk DecodeSparseAnyInto differs from reference", n)
		}

		ref16 := RefEncodeSparseF16(s)
		if got := EncodeSparseF16Into(nil, s); !bytes.Equal(got, ref16) {
			t.Fatalf("n=%d: bulk EncodeSparseF16Into differs from reference", n)
		}
		want16, err := RefDecodeSparseF16(ref16)
		if err != nil {
			t.Fatal(err)
		}
		got16, err := decodeSparse(ref16)
		if err != nil {
			t.Fatal(err)
		}
		if !sparseEqual(got16, want16) {
			t.Fatalf("n=%d: bulk f16 sparse decode differs from reference", n)
		}
	}
}

// TestIntoVariantsReuseBuffers verifies the *Into codecs produce the same
// bytes/values while reusing caller capacity, and still work when the
// supplied buffer is too small.
func TestIntoVariantsReuseBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := randVals(rng, 100)
	ref := RefEncodeDense(v)

	big := GetBuf(DenseLen(len(v)))
	enc := EncodeDenseInto(big, v)
	if &enc[0] != &big[0] {
		t.Fatal("EncodeDenseInto did not reuse a sufficient buffer")
	}
	if !bytes.Equal(enc, ref) {
		t.Fatal("EncodeDenseInto bytes differ from reference")
	}
	if got := EncodeDenseInto(make([]byte, 3), v); !bytes.Equal(got, ref) {
		t.Fatal("EncodeDenseInto with tiny dst differs from reference")
	}
	PutBuf(enc)

	dst := GetF32(len(v))
	dec, err := DecodeDenseAnyInto(dst, ref)
	if err != nil {
		t.Fatal(err)
	}
	if &dec[0] != &dst[0] {
		t.Fatal("DecodeDenseAnyInto did not reuse a sufficient buffer")
	}
	if !bitwiseEqual(dec, v) {
		t.Fatal("DecodeDenseAnyInto values differ")
	}
	PutF32(dec)

	s := randSparse(rng, 77)
	sref := RefEncodeSparse(s)
	var out Sparse
	out.Values = GetF32(8) // deliberately too small: must grow
	if err := DecodeSparseInto(&out, sref); err != nil {
		t.Fatal(err)
	}
	if !sparseEqual(&out, s) {
		t.Fatal("DecodeSparseInto differs from input")
	}
	// Second decode into the now-sized buffers must not reallocate.
	vals0, ranges0 := &out.Values[0], &out.Ranges[0]
	if err := DecodeSparseInto(&out, sref); err != nil {
		t.Fatal(err)
	}
	if &out.Values[0] != vals0 || &out.Ranges[0] != ranges0 {
		t.Fatal("DecodeSparseInto reallocated sufficient buffers")
	}
}

func bitwiseEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sparseEqual(a, b *Sparse) bool {
	if len(a.Ranges) != len(b.Ranges) {
		return false
	}
	for i := range a.Ranges {
		if a.Ranges[i] != b.Ranges[i] {
			return false
		}
	}
	return bitwiseEqual(a.Values, b.Values)
}
