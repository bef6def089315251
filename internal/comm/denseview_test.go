package comm

import (
	"math"
	"math/rand"
	"testing"

	"spatl/internal/tensor"
)

// specialF32 sprinkles IEEE corner cases (NaN, ±0, ±Inf, denormals,
// extremes) into random normals; binary16 encoding maps them onto its
// own NaN/Inf/subnormal/overflow paths.
func specialF32(rng *rand.Rand, n int) []float32 {
	specials := []float32{
		float32(math.NaN()), float32(math.Copysign(0, -1)), 0,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x007fffff),
		math.MaxFloat32, -math.MaxFloat32, 6e-8, 65504, 1e-5,
	}
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
		if i%5 == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		}
	}
	return s
}

// eqAcc demands bit equality, any NaN matching any NaN (x86 does not
// specify which operand's payload a NaN+NaN add propagates).
func eqAcc(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: [%d] fused %x two-pass %x", label, i, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestDenseViewAccumMatchesDecodeThenAccum pins the fused decode→fold
// path to its two-pass definition — DecodeDenseAnyInto, then
// tensor.VecAccumScaled over the window — at both precisions, for every
// length 0…67 (all remainder lanes of the 4-wide kernel and the 8-wide
// f16 unpack), with the payload starting at every byte offset 0…7 of
// its backing array, over a window that starts mid-payload.
func TestDenseViewAccumMatchesDecodeThenAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	encoders := []struct {
		name string
		enc  func([]float32) []byte
	}{{"f32", EncodeDense}, {"f16", encodeDenseF16}}
	for _, e := range encoders {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 8; off++ {
				vals := specialF32(rng, n)
				enc := e.enc(vals)
				raw := make([]byte, off+len(enc)+3)
				payload := raw[off : off+len(enc)]
				copy(payload, enc)

				v, err := ViewDense(payload)
				if err != nil || v.Len() != n {
					t.Fatalf("%s n=%d off=%d: ViewDense len %d err %v", e.name, n, off, v.Len(), err)
				}
				decoded, err := DecodeDenseAnyInto(nil, payload)
				if err != nil {
					t.Fatal(err)
				}
				for _, lo := range []int{0, n / 3} {
					acc := make([]float64, n-lo)
					for i := range acc {
						acc[i] = rng.NormFloat64()
					}
					w := rng.NormFloat64()
					want := append([]float64(nil), acc...)
					tensor.VecAccumScaled(want, decoded[lo:], w)
					v.AccumScaled(acc, lo, w)
					eqAcc(t, e.name, acc, want)
				}
			}
		}
	}
}

// TestDenseViewLongF16 crosses the f16 widening buffer's boundary
// several times.
func TestDenseViewLongF16(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	vals := specialF32(rng, 1000)
	payload := EncodeDenseF16Into(nil, vals)
	v, err := ViewDense(payload)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _ := DecodeDenseAnyInto(nil, payload)
	acc := make([]float64, len(vals))
	want := make([]float64, len(vals))
	v.AccumScaled(acc, 0, 0.75)
	tensor.VecAccumScaled(want, decoded, 0.75)
	eqAcc(t, "f16 long", acc, want)
}

// TestViewDenseRejectsWithoutAllocating sweeps the malformed shapes a
// peer could send: every one is refused by the header check alone, with
// the fixed error and no allocation.
func TestViewDenseRejectsWithoutAllocating(t *testing.T) {
	good := EncodeDense([]float32{1, 2, 3})
	goodH := EncodeDenseF16Into(nil, []float32{1, 2, 3})
	bad := [][]byte{
		nil,
		{magicDense},
		{magicDense, 0xFF, 0xFF, 0xFF, 0xFF},
		good[:len(good)-1],
		append(append([]byte(nil), good...), 0),
		goodH[:len(goodH)-1],
		append([]byte{magicSparse}, good[1:]...),
		append([]byte{magicDenseF16}, good[1:]...), // f32 body under an f16 tag
	}
	for i, b := range bad {
		if _, err := ViewDense(b); err != ErrNotDense {
			t.Fatalf("case %d: err = %v, want ErrNotDense", i, err)
		}
		if _, err := RefDecodeDense(b); err == nil {
			t.Fatalf("case %d: the reference decoder accepts what ViewDense rejects", i)
		}
		if _, err := RefDecodeDenseF16(b); err == nil {
			t.Fatalf("case %d: the reference f16 decoder accepts what ViewDense rejects", i)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, b := range bad {
			_, _ = ViewDense(b)
		}
		_, _ = ViewDense(good)
	}); n != 0 {
		t.Fatalf("ViewDense allocated %v times per run", n)
	}
}

// TestDecodeDensePooledRefusalCostsNoPoolTraffic is the client-side twin
// of the server's rejected-upload regression: a malformed or mis-sized
// dense payload is refused with ErrNotDense before a buffer is taken, so
// the refusal allocates nothing — which a Get from a pool the buffer is
// never returned to would, every time. DecodeSparseValsPooled keeps the
// same rule for values-only frames.
func TestDecodeDensePooledRefusalCostsNoPoolTraffic(t *testing.T) {
	const n = 1 << 10
	vals := make([]float32, n)
	for _, tc := range []struct {
		decode      func([]byte, int) ([]float32, error)
		enc, encF16 func([]float32) []byte
		other       func([]float32) []byte // the other frame family, same count
		refusal     error
	}{
		{DecodeDensePooled, EncodeDense, encodeDenseF16, encodeSparseVals, ErrNotDense},
		{DecodeSparseValsPooled, encodeSparseVals, encodeSparseValsF16, EncodeDense, ErrNotSparseVals},
	} {
		good := tc.enc(vals)
		bad := [][]byte{
			nil,
			good[:len(good)-1],
			append(append([]byte(nil), good...), 0),
			tc.enc(vals[:n-1]),    // well-formed, wrong count
			tc.encF16(vals[:n/2]), // well-formed f16, wrong count
			tc.other(vals),        // right count, wrong frame kind
		}
		for i, b := range bad {
			if got, err := tc.decode(b, n); err != tc.refusal || got != nil {
				t.Fatalf("case %d: got %d values, err %v; want nil, %v", i, len(got), err, tc.refusal)
			}
		}
		if a := testing.AllocsPerRun(100, func() {
			for _, b := range bad {
				_, _ = tc.decode(b, n)
			}
		}); a != 0 {
			t.Fatalf("refusals allocated %v times per run", a)
		}
		for _, b := range [][]byte{good, tc.encF16(vals)} {
			got, err := tc.decode(b, n)
			if err != nil || len(got) != n {
				t.Fatalf("well-formed payload: %d values, err %v", len(got), err)
			}
			PutF32(got)
		}
	}
}

// The one-argument encoders, for tables of frame families.
func encodeDenseF16(v []float32) []byte      { return EncodeDenseF16Into(nil, v) }
func encodeSparseVals(v []float32) []byte    { return EncodeSparseValsInto(nil, v) }
func encodeSparseValsF16(v []float32) []byte { return EncodeSparseValsF16Into(nil, v) }
