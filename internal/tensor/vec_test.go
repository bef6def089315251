package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// vecTestLens covers short slices (pure scalar), exact multiples of the
// vector widths, and awkward tails around them.
var vecTestLens = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 100, 255, 256, 257, 1000, 1023}

// fillSpecial fills s with random normals and sprinkles in the IEEE
// corner cases the kernels must handle bit-exactly: NaN, ±0, ±Inf,
// denormals, and values large enough to overflow under multiplication.
func fillSpecial(rng *rand.Rand, s []float32) {
	specials := []float32{
		float32(math.NaN()),
		float32(math.Copysign(0, -1)),
		0,
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
		math.Float32frombits(1),          // smallest denormal
		math.Float32frombits(0x007fffff), // largest denormal
		math.MaxFloat32,
		-math.MaxFloat32,
		math.SmallestNonzeroFloat32,
	}
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	for i := 0; i < len(s); i += 5 {
		s[i] = specials[rng.Intn(len(specials))]
	}
}

func fillSpecial64(rng *rand.Rand, s []float64) {
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64, 1e300, -1e-310}
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	for i := 0; i < len(s); i += 5 {
		s[i] = specials[rng.Intn(len(specials))]
	}
}

func cloneF32(s []float32) []float32 { return append([]float32(nil), s...) }
func cloneF64(s []float64) []float64 { return append([]float64(nil), s...) }

// eqBitsF32 demands exact bit equality, except that any NaN matches any
// NaN: when both operands of a commutative add are NaN, x86 propagates
// the payload of whichever source the compiler scheduled first, so NaN
// payloads are not specified even between two scalar Go builds. NaN-ness
// itself is IEEE-determined and is still asserted.
func eqBitsF32(t *testing.T, kernel string, n int, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s n=%d: [%d] vec %x ref %x", kernel, n, i, math.Float32bits(g), math.Float32bits(w))
		}
	}
}

func eqBitsF64(t *testing.T, kernel string, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s n=%d: [%d] vec %x ref %x", kernel, n, i, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestVecKernelsMatchRef drives every vec kernel against its Ref* scalar
// ground truth over awkward lengths and IEEE corner-case inputs, and
// demands bitwise-identical results. On machines without AVX2 the vec
// path is the scalar loop and the test degenerates to a self-check.
func TestVecKernelsMatchRef(t *testing.T) {
	if !useAVX2 {
		t.Log("AVX2 unavailable; vec kernels alias scalar loops")
	}
	rng := rand.New(rand.NewSource(21))
	for _, n := range vecTestLens {
		x := make([]float32, n)
		y := make([]float32, n)
		z := make([]float32, n)
		fillSpecial(rng, x)
		fillSpecial(rng, y)
		fillSpecial(rng, z)
		a := float32(rng.NormFloat64())

		{ // VecAxpy
			got, want := cloneF32(y), cloneF32(y)
			VecAxpy(got, x, a)
			RefVecAxpy(want, x, a)
			eqBitsF32(t, "VecAxpy", n, got, want)
		}
		{ // VecScale
			got, want := cloneF32(x), cloneF32(x)
			VecScale(got, a)
			RefVecScale(want, a)
			eqBitsF32(t, "VecScale", n, got, want)
		}
		{ // VecAdd
			got, want := cloneF32(y), cloneF32(y)
			VecAdd(got, x)
			RefVecAdd(want, x)
			eqBitsF32(t, "VecAdd", n, got, want)
		}
		{ // VecSub
			got, want := cloneF32(y), cloneF32(y)
			VecSub(got, x)
			RefVecSub(want, x)
			eqBitsF32(t, "VecSub", n, got, want)
		}
		{ // VecBiasAdd
			got, want := cloneF32(y), cloneF32(y)
			VecBiasAdd(got, a)
			RefVecBiasAdd(want, a)
			eqBitsF32(t, "VecBiasAdd", n, got, want)
		}
		{ // VecCopyBias
			got, want := make([]float32, n), make([]float32, n)
			VecCopyBias(got, x, a)
			RefVecCopyBias(want, x, a)
			eqBitsF32(t, "VecCopyBias", n, got, want)
		}
		{ // VecReLU
			got, want := make([]float32, n), make([]float32, n)
			VecReLU(got, x)
			RefVecReLU(want, x)
			eqBitsF32(t, "VecReLU", n, got, want)
		}
		{ // VecReLUBwd
			got, want := make([]float32, n), make([]float32, n)
			VecReLUBwd(got, y, x)
			RefVecReLUBwd(want, y, x)
			eqBitsF32(t, "VecReLUBwd", n, got, want)
		}
		{ // VecSGDStep
			gotW, wantW := cloneF32(y), cloneF32(y)
			VecSGDStep(gotW, x, 0.1, 5e-4)
			RefVecSGDStep(wantW, x, 0.1, 5e-4)
			eqBitsF32(t, "VecSGDStep", n, gotW, wantW)
		}
		{ // VecSGDMomStep
			gotW, wantW := cloneF32(y), cloneF32(y)
			gotV, wantV := cloneF32(z), cloneF32(z)
			VecSGDMomStep(gotW, gotV, x, 0.1, 5e-4, 0.9)
			RefVecSGDMomStep(wantW, wantV, x, 0.1, 5e-4, 0.9)
			eqBitsF32(t, "VecSGDMomStep.w", n, gotW, wantW)
			eqBitsF32(t, "VecSGDMomStep.v", n, gotV, wantV)
		}
		{ // VecAddDiff
			got, want := cloneF32(z), cloneF32(z)
			VecAddDiff(got, x, y)
			RefVecAddDiff(want, x, y)
			eqBitsF32(t, "VecAddDiff", n, got, want)
		}
		{ // VecAxpyDiff
			got, want := cloneF32(z), cloneF32(z)
			VecAxpyDiff(got, x, y, a)
			RefVecAxpyDiff(want, x, y, a)
			eqBitsF32(t, "VecAxpyDiff", n, got, want)
		}
		{ // VecAccumScaled
			acc := make([]float64, n)
			fillSpecial64(rng, acc)
			got, want := cloneF64(acc), cloneF64(acc)
			w := rng.NormFloat64()
			VecAccumScaled(got, x, w)
			RefVecAccumScaled(want, x, w)
			eqBitsF64(t, "VecAccumScaled", n, got, want)
		}
		{ // VecDivF64ToF32, with and without clearing its source
			src := make([]float64, n)
			fillSpecial64(rng, src)
			for _, d := range []float64{1e-30, 1e30, -1e-30, -1e30, -1, 3 * rng.NormFloat64()} {
				for i := 1; i < n; i += 7 {
					// Quotients that land on float32 subnormals, round
					// below them, and overflow float32.
					src[i] = []float64{1e-40 * d, -3e-45 * d, 1e-47 * d, 3.5e38 * d, -1e39 * d}[i%5]
				}
				want := make([]float32, n)
				RefVecDivF64ToF32(want, src, d)
				got := make([]float32, n)
				VecDivF64ToF32(got, src, d, false)
				eqBitsF32(t, "VecDivF64ToF32", n, got, want)
				acc := cloneF64(src)
				got = make([]float32, n)
				VecDivF64ToF32(got, acc, d, true)
				eqBitsF32(t, "VecDivF64ToF32 clearing", n, got, want)
				eqBitsF64(t, "VecDivF64ToF32 cleared source", n, acc, make([]float64, n))
			}
		}
		{ // VecBNTrain
			mean, inv := rng.NormFloat64(), math.Abs(rng.NormFloat64())+0.1
			g, b := rng.NormFloat64(), rng.NormFloat64()
			gotO, wantO := make([]float32, n), make([]float32, n)
			gotH, wantH := make([]float32, n), make([]float32, n)
			VecBNTrain(gotO, x, mean, inv, g, b)
			VecBNXhat(gotH, x, mean, inv)
			RefVecBNTrain(wantO, wantH, x, mean, inv, g, b)
			eqBitsF32(t, "VecBNTrain.out", n, gotO, wantO)
			eqBitsF32(t, "VecBNTrain.xhat", n, gotH, wantH)
		}
		{ // VecBNEval
			mean, inv := rng.NormFloat64(), math.Abs(rng.NormFloat64())+0.1
			g, b := rng.NormFloat64(), rng.NormFloat64()
			got, want := make([]float32, n), make([]float32, n)
			VecBNEval(got, x, mean, inv, g, b)
			RefVecBNEval(want, x, mean, inv, g, b)
			eqBitsF32(t, "VecBNEval", n, got, want)
		}
		{ // VecBNBwd
			scale, cnt := rng.NormFloat64(), float64(n)
			dbeta, dgamma := rng.NormFloat64(), rng.NormFloat64()
			got, want := make([]float32, n), make([]float32, n)
			VecBNBwd(got, y, x, scale, cnt, dbeta, dgamma)
			RefVecBNBwd(want, y, x, scale, cnt, dbeta, dgamma)
			eqBitsF32(t, "VecBNBwd", n, got, want)
		}
	}
}

// TestReLUGateOnOutputMatchesInput: ReLU runs in place and its Backward
// gates on the output, which is sound because out > 0 exactly where
// x > 0. Over +0, −0, NaN, ±subnormals, ±Inf and mixed-sign vectors, at
// every length 0…67 (below vecMinLen the scalar loop, above it the AVX2
// body and its scalar tail), VecReLUBwd gated on VecReLU(x), computed in
// place, equals it gated on x, bit for bit, and both equal the reference.
func TestReLUGateOnOutputMatchesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	edges := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(-math.NaN()),
		math.Float32frombits(1), math.Float32frombits(0x80000001), // ±smallest subnormal
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // ±largest subnormal
		float32(math.Inf(1)), float32(math.Inf(-1)), 1, -1,
	}
	for n := 0; n <= 67; n++ {
		x, dout := make([]float32, n), make([]float32, n)
		fillSpecial(rng, x)
		fillSpecial(rng, dout)
		for i := range x {
			if i%3 == 0 {
				x[i] = edges[rng.Intn(len(edges))]
			}
		}
		want := make([]float32, n)
		RefVecReLUBwd(want, dout, x)
		onInput := make([]float32, n)
		VecReLUBwd(onInput, dout, x)
		out := cloneF32(x)
		VecReLU(out, out)
		onOutput := make([]float32, n)
		VecReLUBwd(onOutput, dout, out)
		eqBitsF32(t, "gate on input", n, onInput, want)
		eqBitsF32(t, "gate on output", n, onOutput, want)
	}
}

// TestVecAccumScaledLEMatchesDecodeThenAccum pins the fused
// decode→fold kernel to its two-pass definition — decode the wire bytes
// into a []float32, then VecAccumScaled — on every remainder lane
// (lengths 0…67) and at every byte offset 0…7 of the source, for both
// the dispatching entry point (AVX2 where available) and the portable
// body. Run under -race it is also the checkptr proof that no
// misaligned pointer is formed.
func TestVecAccumScaledLEMatchesDecodeThenAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			x := make([]float32, n)
			fillSpecial(rng, x)
			raw := make([]byte, off+4*n+5) // slack on both sides of the window
			for i, v := range x {
				binary.LittleEndian.PutUint32(raw[off+4*i:], math.Float32bits(v))
			}
			wire := raw[off : off+4*n]
			acc := make([]float64, n)
			fillSpecial64(rng, acc)
			w := rng.NormFloat64()

			want := cloneF64(acc)
			VecAccumScaled(want, x, w)
			ref := cloneF64(acc)
			RefVecAccumScaled(ref, x, w)
			eqBitsF64(t, "VecAccumScaled", n, want, ref)

			got := cloneF64(acc)
			VecAccumScaledLE(got, wire, w)
			eqBitsF64(t, "VecAccumScaledLE", n, got, want)
			got = cloneF64(acc)
			vecAccumScaledLEScalar(got, wire, w)
			eqBitsF64(t, "vecAccumScaledLEScalar", n, got, want)
		}
	}
}

// TestVecF32LEMatchesLittleEndian pins the dense codec's copy kernels to
// binary.LittleEndian on every remainder lane (lengths 0…67, then two
// long ones) and at every byte offset 0…7 of the wire side, over NaN
// payloads, signed zeros, infinities and subnormals: the prefix they
// report is a multiple of 8 no longer than the input, every byte and
// float of it matches, and nothing past it is written.
func TestVecF32LEMatchesLittleEndian(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	lens := []int{1000, 4099}
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	for _, n := range lens {
		for off := 0; off < 8; off++ {
			x := make([]float32, n)
			fillSpecial(rng, x)
			for i := 3; i < n; i += 11 {
				x[i] = math.Float32frombits(0x7fa00000 | uint32(i)) // signalling NaN, distinct payload
			}
			const guard = 0xA5
			raw := make([]byte, off+4*n+5)
			for i := range raw {
				raw[i] = guard
			}
			wire := raw[off : off+4*n]
			k := VecPutF32LE(wire, x)
			if k%8 != 0 || k > n || (useAVX2 && n >= vecMinLen && k != n&^7) {
				t.Fatalf("VecPutF32LE n=%d: prefix %d", n, k)
			}
			for i, b := range raw {
				in := i >= off && i < off+4*k
				if !in && b != guard {
					t.Fatalf("VecPutF32LE n=%d off=%d: byte %d outside the prefix written", n, off, i)
				}
				if in && binary.LittleEndian.Uint32(raw[off+4*((i-off)/4):]) != math.Float32bits(x[(i-off)/4]) {
					t.Fatalf("VecPutF32LE n=%d off=%d: value %d differs", n, off, (i-off)/4)
				}
			}
			for i, v := range x {
				binary.LittleEndian.PutUint32(wire[4*i:], math.Float32bits(v))
			}
			got := make([]float32, n+1)
			got[n] = 42
			k = VecGetF32LE(got[:n], wire)
			if k%8 != 0 || k > n || (useAVX2 && n >= vecMinLen && k != n&^7) {
				t.Fatalf("VecGetF32LE n=%d: prefix %d", n, k)
			}
			for i := range got[:n] {
				if i >= k && got[i] != 0 || i < k && math.Float32bits(got[i]) != math.Float32bits(x[i]) {
					t.Fatalf("VecGetF32LE n=%d off=%d: [%d] = %x, want %x", n, off, i, math.Float32bits(got[i]), math.Float32bits(x[i]))
				}
			}
			if got[n] != 42 {
				t.Fatalf("VecGetF32LE n=%d: wrote past its prefix", n)
			}
		}
	}
}

// TestVecKernelsRaceHammer runs the vec kernels concurrently over
// disjoint windows of shared backing arrays, the way layer code and the
// worker pool use them. Run with -race; correctness of the partitioned
// results is also checked against a serial pass.
func TestVecKernelsRaceHammer(t *testing.T) {
	const total, parts = 4096, 8
	rng := rand.New(rand.NewSource(22))
	x := make([]float32, total)
	base := make([]float32, total)
	fillSpecial(rng, x)
	fillSpecial(rng, base)

	want := cloneF32(base)
	RefVecAxpy(want, x, 0.5)
	RefVecReLU(want, want)
	RefVecSGDStep(want, x, 0.01, 1e-4)
	acc := make([]float64, total)
	fillSpecial64(rng, acc)
	wantDiv := make([]float32, total)
	RefVecDivF64ToF32(wantDiv, acc, -7.5)

	for iter := 0; iter < 50; iter++ {
		got := cloneF32(base)
		div, src := make([]float32, total), cloneF64(acc)
		var wg sync.WaitGroup
		for p := 0; p < parts; p++ {
			lo, hi := p*total/parts, (p+1)*total/parts
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				VecAxpy(got[lo:hi], x[lo:hi], 0.5)
				VecReLU(got[lo:hi], got[lo:hi])
				VecSGDStep(got[lo:hi], x[lo:hi], 0.01, 1e-4)
				VecDivF64ToF32(div[lo:hi], src[lo:hi], -7.5, true)
			}(lo, hi)
		}
		wg.Wait()
		eqBitsF32(t, "RaceHammer", total, got, want)
		eqBitsF32(t, "RaceHammer VecDivF64ToF32", total, div, wantDiv)
		eqBitsF64(t, "RaceHammer cleared source", total, src, make([]float64, total))
	}
}

// TestCopyRowsPitched checks CopyRows bit for bit against a plain copy
// loop with unequal source and destination pitches over every width class
// of the kernel (below 4: Go; 4–7: two xmm moves; 8 and up: whole vectors
// plus one flush with the row's end), and that nothing outside the rows'
// own cells is written.
func TestCopyRowsPitched(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, w := range []int{1, 3, 4, 8, 13, 16, 40} {
		for _, rows := range []int{1, 2, 7} {
			for _, pitches := range [][2]int{{w + 5, w}, {w, w + 3}, {w + 2, w + 9}} {
				dp, sp := pitches[0], pitches[1]
				src := make([]float32, (rows-1)*sp+w)
				fillSpecial(rng, src)
				got := make([]float32, (rows-1)*dp+w+4) // a guard beyond the last row
				for i := range got {
					got[i] = -999
				}
				want := append([]float32(nil), got...)
				for r := 0; r < rows; r++ {
					copy(want[r*dp:][:w], src[r*sp:][:w])
				}
				CopyRows(got, dp, src, sp, rows, w)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("w=%d rows=%d pitches %d←%d: dst[%d] = %v, want %v", w, rows, dp, sp, i, got[i], want[i])
					}
				}
			}
		}
	}
}
