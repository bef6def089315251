package comm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestF16KnownValues(t *testing.T) {
	cases := []struct {
		f float32
		h uint16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF}, // max finite half
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
	}
	for _, c := range cases {
		if got := Float32ToF16(c.f); got != c.h {
			t.Fatalf("Float32ToF16(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
		if back := F16ToFloat32(c.h); back != c.f {
			t.Fatalf("F16ToFloat32(%#04x) = %v, want %v", c.h, back, c.f)
		}
	}
}

func TestF16Overflow(t *testing.T) {
	if got := F16ToFloat32(Float32ToF16(1e10)); !math.IsInf(float64(got), 1) {
		t.Fatalf("1e10 should clamp to +Inf, got %v", got)
	}
	if got := F16ToFloat32(Float32ToF16(-1e10)); !math.IsInf(float64(got), -1) {
		t.Fatalf("-1e10 should clamp to -Inf, got %v", got)
	}
}

func TestF16NaN(t *testing.T) {
	nan := float32(math.NaN())
	got := F16ToFloat32(Float32ToF16(nan))
	if got == got { // NaN != NaN
		t.Fatalf("NaN did not survive: %v", got)
	}
}

// Property: f16 round trip error is within half-precision ULP for values
// in the training-relevant range.
func TestF16RoundTripPrecisionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			v := float32(rng.NormFloat64() * math.Pow(10, rng.Float64()*4-2))
			back := F16ToFloat32(Float32ToF16(v))
			// Relative error ≤ 2^-10 (one part in 1024) + tiny absolute
			// slack for subnormals.
			if math.Abs(float64(back-v)) > math.Abs(float64(v))/1024+1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: f16 round trip is idempotent — re-encoding a decoded value
// is exact.
func TestF16IdempotentProperty(t *testing.T) {
	f := func(h uint16) bool {
		v := F16ToFloat32(h)
		if v != v { // skip NaNs (payload equality undefined)
			return true
		}
		return F16ToFloat32(Float32ToF16(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDenseF16RoundTripAndSize(t *testing.T) {
	vals := []float32{0.5, -1.25, 3.0, 0}
	buf := EncodeDenseF16Into(nil, vals)
	if len(buf) != 1+4+2*len(vals) {
		t.Fatalf("f16 payload size %d", len(buf))
	}
	full := EncodeDense(vals)
	if len(buf) >= len(full) {
		t.Fatal("f16 payload must be smaller than f32")
	}
	out, err := DecodeDenseAnyInto(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i] != vals[i] { // these values are exactly representable
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, out[i], vals[i])
		}
	}
	// DecodeDenseAnyInto must also still accept f32 payloads.
	out2, err := DecodeDenseAnyInto(nil, full)
	if err != nil || out2[1] != vals[1] {
		t.Fatal("DecodeDenseAnyInto must accept f32 payloads")
	}
}

func TestSparseF16RoundTrip(t *testing.T) {
	s := &Sparse{Ranges: []Range{{Start: 1, Len: 2}}, Values: []float32{0.25, -2}}
	buf := EncodeSparseF16Into(nil, s)
	out, err := decodeSparse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ranges[0] != s.Ranges[0] {
		t.Fatal("ranges mismatch")
	}
	for i := range s.Values {
		if out.Values[i] != s.Values[i] {
			t.Fatal("values mismatch")
		}
	}
	if len(buf) >= len(EncodeSparse(s)) {
		t.Fatal("f16 sparse payload must be smaller")
	}
	// And f32 sparse still decodes through Any.
	if _, err := decodeSparse(EncodeSparse(s)); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeF16RejectsGarbage(t *testing.T) {
	if _, err := DecodeDenseAnyInto(nil, []byte{magicDenseF16, 9, 0, 0, 0, 1}); err == nil {
		t.Fatal("expected error for truncated f16 dense")
	}
	if err := decodeSparseF16Into(&Sparse{}, []byte{magicSparseF16, 9, 0, 0, 0}); err == nil {
		t.Fatal("expected error for truncated f16 sparse")
	}
}
