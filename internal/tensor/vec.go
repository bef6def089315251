package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Vec kernels: the SIMD elementwise layer under the training hot path.
// Every kernel is elementwise — no cross-element reduction — so the AVX2
// paths apply the identical IEEE operation sequence per element as the
// scalar loops (multiply/add/subtract in source order, no FMA
// contraction, no reassociation) and the two paths are bitwise
// interchangeable. Reductions (sums, norms, means) deliberately stay
// scalar in their callers: vectorizing them would change summation
// order and break the repository-wide determinism contract.
//
// Dispatch mirrors the matmul tile: a startup CPUID probe (useAVX2)
// selects the assembly body for the 8-wide (float32) / 4-wide
// (float64-compute) head of each slice; remainders and short slices run
// the scalar loop. Scalar ground truths are retained in ref.go
// (RefVec*) and the equivalence tests demand exact equality, including
// NaN, signed-zero and denormal inputs.

// vecMinLen is the slice length below which the call overhead of the
// assembly kernel is not worth paying; short slices run scalar.
const vecMinLen = 16

// VecAxpy computes y += a*x elementwise (BLAS axpy).
func VecAxpy(y, x []float32, a float32) {
	x = x[:len(y)]
	if useAVX2 && len(y) >= vecMinLen {
		n := len(y) &^ 7
		vecAxpyAsm(&y[0], &x[0], n, a)
		y, x = y[n:], x[n:]
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// VecScale computes x *= a elementwise.
func VecScale(x []float32, a float32) {
	if useAVX2 && len(x) >= vecMinLen {
		n := len(x) &^ 7
		vecScaleAsm(&x[0], n, a)
		x = x[n:]
	}
	for i := range x {
		x[i] *= a
	}
}

// VecAdd computes dst += src elementwise.
func VecAdd(dst, src []float32) {
	src = src[:len(dst)]
	if useAVX2 && len(dst) >= vecMinLen {
		n := len(dst) &^ 7
		vecAddAsm(&dst[0], &src[0], n)
		dst, src = dst[n:], src[n:]
	}
	for i, v := range src {
		dst[i] += v
	}
}

// VecSub computes dst -= src elementwise.
func VecSub(dst, src []float32) {
	src = src[:len(dst)]
	if useAVX2 && len(dst) >= vecMinLen {
		n := len(dst) &^ 7
		vecSubAsm(&dst[0], &src[0], n)
		dst, src = dst[n:], src[n:]
	}
	for i, v := range src {
		dst[i] -= v
	}
}

// VecBiasAdd computes dst += b (scalar broadcast) elementwise — the bias
// row update of linear and convolution layers.
func VecBiasAdd(dst []float32, b float32) {
	if useAVX2 && len(dst) >= vecMinLen {
		n := len(dst) &^ 7
		vecBiasAddAsm(&dst[0], n, b)
		dst = dst[n:]
	}
	for i := range dst {
		dst[i] += b
	}
}

// VecCopyBias computes dst = src + b (scalar broadcast) elementwise —
// the fused copy-out of the batched convolution GEMM with the bias
// folded into the single store.
func VecCopyBias(dst, src []float32, b float32) {
	src = src[:len(dst)]
	if useAVX2 && len(dst) >= vecMinLen {
		n := len(dst) &^ 7
		vecCopyBiasAsm(&dst[0], &src[0], n, b)
		dst, src = dst[n:], src[n:]
	}
	for i, v := range src {
		dst[i] = v + b
	}
}

// VecReLU computes out[i] = x[i] if x[i] > 0 else 0. The vector body
// uses a quiet greater-than compare and a bitwise AND, reproducing the
// scalar branch exactly: positive lanes keep their bit pattern, all
// others (negatives, both zeros, NaN) become +0.
func VecReLU(out, x []float32) {
	x = x[:len(out)]
	if useAVX2 && len(out) >= vecMinLen {
		n := len(out) &^ 7
		vecReLUAsm(&out[0], &x[0], n)
		out, x = out[n:], x[n:]
	}
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// VecReLUBwd computes dx[i] = dout[i] if x[i] > 0 else 0 — the ReLU
// gradient gate, masked by the forward input.
func VecReLUBwd(dx, dout, x []float32) {
	dout = dout[:len(dx)]
	x = x[:len(dx)]
	if useAVX2 && len(dx) >= vecMinLen {
		n := len(dx) &^ 7
		vecReLUBwdAsm(&dx[0], &dout[0], &x[0], n)
		dx, dout, x = dx[n:], dout[n:], x[n:]
	}
	for i, v := range dout {
		if x[i] > 0 {
			dx[i] = v
		} else {
			dx[i] = 0
		}
	}
}

// VecSGDStep applies one plain SGD update: w -= lr*(g + wd*w).
func VecSGDStep(w, g []float32, lr, wd float32) {
	g = g[:len(w)]
	if useAVX2 && len(w) >= vecMinLen {
		n := len(w) &^ 7
		vecSGDAsm(&w[0], &g[0], n, lr, wd)
		w, g = w[n:], g[n:]
	}
	for i, gv := range g {
		w[i] -= lr * (gv + wd*w[i])
	}
}

// VecSGDMomStep applies one classical-momentum SGD update:
//
//	gj = g + wd*w ; v = mu*v + gj ; w -= lr*v
//
// fusing the three elementwise passes of the scalar optimizer loop into
// one, with identical per-element operation order.
func VecSGDMomStep(w, v, g []float32, lr, wd, mu float32) {
	v = v[:len(w)]
	g = g[:len(w)]
	if useAVX2 && len(w) >= vecMinLen {
		n := len(w) &^ 7
		vecSGDMomAsm(&w[0], &v[0], &g[0], n, lr, wd, mu)
		w, v, g = w[n:], v[n:], g[n:]
	}
	for i, gv := range g {
		gj := gv + wd*w[i]
		v[i] = mu*v[i] + gj
		w[i] -= lr * v[i]
	}
}

// VecAddDiff computes dst += a - b elementwise — the SCAFFOLD/SPATL
// control-variate gradient correction g += c − cᵢ.
func VecAddDiff(dst, a, b []float32) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	if useAVX2 && len(dst) >= vecMinLen {
		n := len(dst) &^ 7
		vecAddDiffAsm(&dst[0], &a[0], &b[0], n)
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	for i := range dst {
		dst[i] += a[i] - b[i]
	}
}

// VecAxpyDiff computes dst += m*(a - b) elementwise — FedProx's proximal
// gradient term μ(w − w_global).
func VecAxpyDiff(dst, a, b []float32, m float32) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	if useAVX2 && len(dst) >= vecMinLen {
		n := len(dst) &^ 7
		vecAxpyDiffAsm(&dst[0], &a[0], &b[0], n, m)
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	for i := range dst {
		dst[i] += m * (a[i] - b[i])
	}
}

// VecAccumScaled computes acc[i] += w*float64(v[i]) — the inner loop of
// the float64 server reduction. The float32→float64
// widening is exact and the multiply/add are IEEE double ops, so the
// 4-wide body matches the scalar loop bit for bit; client-order
// determinism is preserved because the kernel touches one client at a
// time.
func VecAccumScaled(acc []float64, v []float32, w float64) {
	v = v[:len(acc)]
	if useAVX2 && len(acc) >= 8 {
		n := len(acc) &^ 3
		vecAccumScaledAsm(&acc[0], &v[0], n, w)
		acc, v = acc[n:], v[n:]
	}
	for i, x := range v {
		acc[i] += w * float64(x)
	}
}

// VecAccumScaledLE is VecAccumScaled with the float32 operand read
// straight from little-endian wire bytes: acc[i] += w*float64(x[i])
// where x[i] is the float32 at src[4i:4i+4]. It is the fused
// decode→fold step of the server reduction — no intermediate
// []float32 — and bitwise equal to decoding src and calling
// VecAccumScaled. src may start at any byte offset: the assembly body
// takes a byte pointer and every load in it is unaligned-safe.
func VecAccumScaledLE(acc []float64, src []byte, w float64) {
	src = src[:4*len(acc)]
	if useAVX2 && len(acc) >= 8 {
		n := len(acc) &^ 3
		vecAccumScaledLEAsm(&acc[0], &src[0], n, w)
		acc, src = acc[n:], src[4*n:]
	}
	vecAccumScaledLEScalar(acc, src, w)
}

// vecAccumScaledLEScalar is the portable body of VecAccumScaledLE and
// its remainder loop.
func vecAccumScaledLEScalar(acc []float64, src []byte, w float64) {
	for i := range acc {
		acc[i] += w * float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
}

// VecDivF64ToF32 computes dst[i] = float32(src[i] / d): the finalize of
// the float64 server reductions, ÷Σw then narrow. VDIVPD and VCVTPD2PS
// are each IEEE-exact per lane, so the 4-wide body is bitwise the scalar
// expression. With clearSrc every src[i] is zeroed once read, so an
// accumulator leaves its finalize ready for the next round's fold without
// a clear pass of its own.
func VecDivF64ToF32(dst []float32, src []float64, d float64, clearSrc bool) {
	src = src[:len(dst)]
	if useAVX2 && len(dst) >= 8 {
		n := len(dst) &^ 3
		clr := 0
		if clearSrc {
			clr = 1
		}
		vecDivF64ToF32Asm(&dst[0], &src[0], n, d, clr)
		dst, src = dst[n:], src[n:]
	}
	for i, x := range src {
		dst[i] = float32(x / d)
	}
	if clearSrc {
		clear(src)
	}
}

// VecPutF32LE writes the longest prefix of src the AVX2 copy kernel
// takes — a multiple of 8 values, none without AVX2 — into dst as
// little-endian float32 bytes and returns its length; the caller encodes
// the rest. Those bytes are the floats' memory image on amd64, so the
// kernel is a copy, NaN payloads included. dst may start at any byte
// offset.
func VecPutF32LE(dst []byte, src []float32) int {
	if !useAVX2 || len(src) < vecMinLen {
		return 0
	}
	n := len(src) &^ 7
	dst = dst[:4*n]
	vecF32ToLEAsm(&dst[0], &src[0], n)
	return n
}

// VecGetF32LE is VecPutF32LE's inverse: it reads the longest prefix of
// dst the copy kernel takes from little-endian float32 bytes at src and
// returns its length.
func VecGetF32LE(dst []float32, src []byte) int {
	if !useAVX2 || len(dst) < vecMinLen {
		return 0
	}
	n := len(dst) &^ 7
	src = src[:4*n]
	vecLEToF32Asm(&dst[0], &src[0], n)
	return n
}

// VecBNTrain applies the training-mode BatchNorm normalize+affine to one
// contiguous channel strip, in float64 exactly as the scalar loop:
//
//	xh = (float64(x) - mean) * inv ; out = float32(g*xh + b)
//
// The normalized input itself is not kept: Backward recomputes it with
// VecBNXhat, which forms the same xh.
func VecBNTrain(out, x []float32, mean, inv, g, b float64) {
	x = x[:len(out)]
	if useAVX2 && len(out) >= 8 {
		n := len(out) &^ 3
		vecBNTrainAsm(&out[0], &x[0], n, mean, inv, g, b)
		out, x = out[n:], x[n:]
	}
	for i, v := range x {
		xh := (float64(v) - mean) * inv
		out[i] = float32(g*xh + b)
	}
}

// VecBNXhat writes one channel strip's normalized input,
// xhat = float32((float64(x) - mean) * inv): the xh VecBNTrain forms,
// rounded once.
func VecBNXhat(xhat, x []float32, mean, inv float64) {
	x = x[:len(xhat)]
	if useAVX2 && len(xhat) >= 8 {
		n := len(xhat) &^ 3
		vecBNXhatAsm(&xhat[0], &x[0], n, mean, inv)
		xhat, x = xhat[n:], x[n:]
	}
	for i, v := range x {
		xhat[i] = float32((float64(v) - mean) * inv)
	}
}

// VecBNEval applies the eval-mode BatchNorm transform to one contiguous
// channel strip: out = float32(g*(float64(x)-mean)*inv + b), with the
// multiplications in the scalar expression's left-to-right order.
func VecBNEval(out, x []float32, mean, inv, g, b float64) {
	x = x[:len(out)]
	if useAVX2 && len(out) >= 8 {
		n := len(out) &^ 3
		vecBNEvalAsm(&out[0], &x[0], n, mean, inv, g, b)
		out, x = out[n:], x[n:]
	}
	for i, v := range x {
		out[i] = float32(g*(float64(v)-mean)*inv + b)
	}
}

// VecBNBwd applies the BatchNorm input-gradient formula to one
// contiguous channel strip:
//
//	dx = float32(scale * (cnt*float64(dout) - dbeta - float64(xhat)*dgamma))
func VecBNBwd(dx, dout, xhat []float32, scale, cnt, dbeta, dgamma float64) {
	dout = dout[:len(dx)]
	xhat = xhat[:len(dx)]
	if useAVX2 && len(dx) >= 8 {
		n := len(dx) &^ 3
		vecBNBwdAsm(&dx[0], &dout[0], &xhat[0], n, scale, cnt, dbeta, dgamma)
		dx, dout, xhat = dx[n:], dout[n:], xhat[n:]
	}
	for i, g := range dout {
		dx[i] = float32(scale * (cnt*float64(g) - dbeta - float64(xhat[i])*dgamma))
	}
}

// CopyRows copies rows rows of w floats between two pitched layouts: row
// r goes from src[r·spitch:] to dst[r·dpitch:]. It is the pad, crop and
// re-pitch step of the implicit-GEMM convolution (an image into its
// zero-bordered copy and back, a gradient onto the padded pitch), whose
// rows are too short for a memmove call each to pay. dst and src must not
// overlap.
func CopyRows(dst []float32, dpitch int, src []float32, spitch, rows, w int) {
	if rows <= 0 || w <= 0 {
		return
	}
	if dpitch < 0 || spitch < 0 || (rows-1)*dpitch+w > len(dst) || (rows-1)*spitch+w > len(src) {
		panic(fmt.Sprintf("tensor: CopyRows %d rows of %d out of range: len(dst)=%d pitch %d, len(src)=%d pitch %d", rows, w, len(dst), dpitch, len(src), spitch))
	}
	if useAVX2 && w >= 4 {
		copyRowsAsm(&dst[0], 4*dpitch, &src[0], 4*spitch, rows, w)
		return
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*dpitch:][:w], src[r*spitch:][:w])
	}
}
