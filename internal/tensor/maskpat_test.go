package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestMaskPatMatchesRef holds the pattern kernel bitwise to the dense
// reference product at every zero fraction, fully dense and fully zero
// included, with −0 among the zeros of both operands: a skipped ±0 term
// must leave each sum exactly as the reference forms it.
func TestMaskPatMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {8, 16, 33}, {16, 144, 64}, {5, 7, 100}, {32, 27, 256},
	} {
		for _, zf := range []float64{0, 0.3, 0.6, 0.95, 1} {
			w, b := New(sh.m, sh.k), New(sh.k, sh.n)
			fillRand(w, rng)
			fillRand(b, rng)
			zeroOut(w, rng, zf)
			zeroOut(b, rng, 0.1)
			pat := BuildMaskPat(w.Data, sh.m, sh.k)
			nnz := 0
			for _, v := range w.Data {
				if v != 0 {
					nnz++
				}
			}
			if pat.NNZ() != nnz {
				t.Fatalf("%v zeros %.2f: pattern records %d nonzeros, scan finds %d", sh, zf, pat.NNZ(), nnz)
			}
			want := RefMatMul(w, b)
			got := make([]float32, sh.m*sh.n)
			for i := range got {
				got[i] = -999 // every element must be written
			}
			MatMulMaskPatSlice(got, w.Data, b.Data, pat, sh.n)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%v zeros %.2f: element %d = %v (%#x), ref %v (%#x)", sh, zf, i,
						got[i], math.Float32bits(got[i]), want.Data[i], math.Float32bits(want.Data[i]))
				}
			}
		}
	}
}
