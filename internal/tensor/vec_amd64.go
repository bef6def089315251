package tensor

// Assembly bodies for the vec kernels (vec_amd64.s). Each processes a
// prefix whose length is a multiple of the vector width (8 for float32
// kernels, 4 for float64-compute kernels); callers in vec.go handle the
// scalar tail. All bodies use separate multiply and add instructions —
// never FMA — and per-element operation order identical to the scalar
// loops, so outputs are bitwise equal to the Ref* kernels.

//go:noescape
func vecAxpyAsm(y, x *float32, n int, a float32)

//go:noescape
func vecScaleAsm(x *float32, n int, a float32)

//go:noescape
func vecAddAsm(dst, src *float32, n int)

//go:noescape
func vecSubAsm(dst, src *float32, n int)

//go:noescape
func vecBiasAddAsm(dst *float32, n int, b float32)

//go:noescape
func vecCopyBiasAsm(dst, src *float32, n int, b float32)

//go:noescape
func vecReLUAsm(out, x *float32, n int)

//go:noescape
func vecReLUBwdAsm(dx, dout, x *float32, n int)

//go:noescape
func vecSGDAsm(w, gv *float32, n int, lr, wd float32)

//go:noescape
func vecSGDMomAsm(w, v, gv *float32, n int, lr, wd, mu float32)

//go:noescape
func vecAddDiffAsm(dst, a, b *float32, n int)

//go:noescape
func vecAxpyDiffAsm(dst, a, b *float32, n int, m float32)

//go:noescape
func vecAccumScaledAsm(acc *float64, v *float32, n int, w float64)

// vecAccumScaledLEAsm is the vecAccumScaledAsm body entered with a byte
// pointer: amd64 is little-endian and VCVTPS2PD's memory operand has no
// alignment requirement, so wire bytes are read in place.
//
//go:noescape
func vecAccumScaledLEAsm(acc *float64, src *byte, n int, w float64)

//go:noescape
func vecDivF64ToF32Asm(dst *float32, src *float64, n int, d float64, clr int)

// vecF32ToLEAsm and vecLEToF32Asm copy n float32s between a float32
// slice and little-endian wire bytes at any byte offset.
//
//go:noescape
func vecF32ToLEAsm(dst *byte, src *float32, n int)

//go:noescape
func vecLEToF32Asm(dst *float32, src *byte, n int)

//go:noescape
func vecBNTrainAsm(out, x *float32, n int, mean, inv, gv, b float64)

//go:noescape
func vecBNXhatAsm(xhat, x *float32, n int, mean, inv float64)

//go:noescape
func vecBNEvalAsm(out, x *float32, n int, mean, inv, gv, b float64)

//go:noescape
func vecBNBwdAsm(dx, dout, xhat *float32, n int, scale, cnt, dbeta, dgamma float64)

// copyRowsAsm is CopyRows for w ≥ 4 with pitches in bytes: whole vectors
// from the row's start, then one placed flush with its end (two ymm moves
// for a 16-float row, two overlapping xmm moves below 8 floats).
//
//go:noescape
func copyRowsAsm(dst *float32, dpitch int, src *float32, spitch, rows, w int)
