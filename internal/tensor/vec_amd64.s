// AVX2 bodies for the elementwise vec kernels. Vectorization is across
// independent elements only — each lane applies the exact IEEE operation
// sequence of the scalar loop (separate VMULPS/VADDPS, no FMA, source
// operation order), so outputs are bitwise identical to the Ref* scalar
// kernels. Float32 kernels step 8 lanes (YMM), float64-compute kernels
// step 4 lanes (floats widened with VCVTPS2PD, narrowed back with
// VCVTPD2PS = Go's float32(x) round-to-nearest-even). ReLU uses a quiet
// ordered greater-than compare (predicate 0x1E) and a bitwise AND rather
// than VMAXPS, matching the scalar branch on NaN and signed zero.
//
// Every body requires n > 0 and n a multiple of the lane count; the Go
// wrappers guarantee both.

#include "textflag.h"

// func vecAxpyAsm(y, x *float32, n int, a float32)
// y[i] += a*x[i]
TEXT ·vecAxpyAsm(SB), NOSPLIT, $0-28
	MOVQ	y+0(FP), DI
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSS	a+24(FP), Y0

axpyloop:
	VMOVUPS	(SI), Y1
	VMULPS	Y1, Y0, Y2          // a*x
	VMOVUPS	(DI), Y3
	VADDPS	Y2, Y3, Y3          // y + a*x
	VMOVUPS	Y3, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	axpyloop
	VZEROUPPER
	RET

// func vecScaleAsm(x *float32, n int, a float32)
// x[i] *= a
TEXT ·vecScaleAsm(SB), NOSPLIT, $0-20
	MOVQ	x+0(FP), DI
	MOVQ	n+8(FP), CX
	VBROADCASTSS	a+16(FP), Y0

scaleloop:
	VMOVUPS	(DI), Y1
	VMULPS	Y0, Y1, Y1          // x*a
	VMOVUPS	Y1, (DI)
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	scaleloop
	VZEROUPPER
	RET

// func vecAddAsm(dst, src *float32, n int)
// dst[i] += src[i]
TEXT ·vecAddAsm(SB), NOSPLIT, $0-24
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX

addloop:
	VMOVUPS	(SI), Y1
	VMOVUPS	(DI), Y2
	VADDPS	Y1, Y2, Y2          // dst + src
	VMOVUPS	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	addloop
	VZEROUPPER
	RET

// func vecSubAsm(dst, src *float32, n int)
// dst[i] -= src[i]
TEXT ·vecSubAsm(SB), NOSPLIT, $0-24
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX

subloop:
	VMOVUPS	(SI), Y1
	VMOVUPS	(DI), Y2
	VSUBPS	Y1, Y2, Y2          // dst - src
	VMOVUPS	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	subloop
	VZEROUPPER
	RET

// func vecBiasAddAsm(dst *float32, n int, b float32)
// dst[i] += b
TEXT ·vecBiasAddAsm(SB), NOSPLIT, $0-20
	MOVQ	dst+0(FP), DI
	MOVQ	n+8(FP), CX
	VBROADCASTSS	b+16(FP), Y0

biasloop:
	VMOVUPS	(DI), Y1
	VADDPS	Y0, Y1, Y1          // dst + b
	VMOVUPS	Y1, (DI)
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	biasloop
	VZEROUPPER
	RET

// func vecCopyBiasAsm(dst, src *float32, n int, b float32)
// dst[i] = src[i] + b
TEXT ·vecCopyBiasAsm(SB), NOSPLIT, $0-28
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSS	b+24(FP), Y0

cbiasloop:
	VMOVUPS	(SI), Y1
	VADDPS	Y0, Y1, Y1          // src + b
	VMOVUPS	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	cbiasloop
	VZEROUPPER
	RET

// func vecReLUAsm(out, x *float32, n int)
// out[i] = x[i] if x[i] > 0 else 0
TEXT ·vecReLUAsm(SB), NOSPLIT, $0-24
	MOVQ	out+0(FP), DI
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
	VXORPS	Y0, Y0, Y0          // zero

reluloop:
	VMOVUPS	(SI), Y1
	VCMPPS	$0x1E, Y0, Y1, Y2   // mask = x > 0 (GT_OQ)
	VANDPS	Y1, Y2, Y3          // keep positive lanes' bits
	VMOVUPS	Y3, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	reluloop
	VZEROUPPER
	RET

// func vecReLUBwdAsm(dx, dout, x *float32, n int)
// dx[i] = dout[i] if x[i] > 0 else 0
TEXT ·vecReLUBwdAsm(SB), NOSPLIT, $0-32
	MOVQ	dx+0(FP), DI
	MOVQ	dout+8(FP), SI
	MOVQ	x+16(FP), BX
	MOVQ	n+24(FP), CX
	VXORPS	Y0, Y0, Y0          // zero

relubloop:
	VMOVUPS	(BX), Y1
	VCMPPS	$0x1E, Y0, Y1, Y2   // mask = x > 0 (GT_OQ)
	VMOVUPS	(SI), Y3
	VANDPS	Y3, Y2, Y4          // gate dout by mask
	VMOVUPS	Y4, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	ADDQ	$32, BX
	SUBQ	$8, CX
	JNZ	relubloop
	VZEROUPPER
	RET

// func vecSGDAsm(w, gv *float32, n int, lr, wd float32)
// w[i] -= lr*(g[i] + wd*w[i])
TEXT ·vecSGDAsm(SB), NOSPLIT, $0-32
	MOVQ	w+0(FP), DI
	MOVQ	gv+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSS	lr+24(FP), Y0
	VBROADCASTSS	wd+28(FP), Y1

sgdloop:
	VMOVUPS	(DI), Y2            // w
	VMULPS	Y2, Y1, Y3          // wd*w
	VMOVUPS	(SI), Y4            // g
	VADDPS	Y3, Y4, Y5          // g + wd*w
	VMULPS	Y5, Y0, Y6          // lr*(g + wd*w)
	VSUBPS	Y6, Y2, Y2          // w - lr*(...)
	VMOVUPS	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	sgdloop
	VZEROUPPER
	RET

// func vecSGDMomAsm(w, v, gv *float32, n int, lr, wd, mu float32)
// gj = g[i] + wd*w[i]; v[i] = mu*v[i] + gj; w[i] -= lr*v[i]
TEXT ·vecSGDMomAsm(SB), NOSPLIT, $0-44
	MOVQ	w+0(FP), DI
	MOVQ	v+8(FP), SI
	MOVQ	gv+16(FP), BX
	MOVQ	n+24(FP), CX
	VBROADCASTSS	lr+32(FP), Y0
	VBROADCASTSS	wd+36(FP), Y1
	VBROADCASTSS	mu+40(FP), Y2

sgdmloop:
	VMOVUPS	(DI), Y3            // w
	VMULPS	Y3, Y1, Y4          // wd*w
	VMOVUPS	(BX), Y5            // g
	VADDPS	Y4, Y5, Y5          // gj = g + wd*w
	VMOVUPS	(SI), Y6            // v
	VMULPS	Y6, Y2, Y6          // mu*v
	VADDPS	Y5, Y6, Y6          // v' = mu*v + gj
	VMOVUPS	Y6, (SI)
	VMULPS	Y6, Y0, Y7          // lr*v'
	VSUBPS	Y7, Y3, Y3          // w - lr*v'
	VMOVUPS	Y3, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	ADDQ	$32, BX
	SUBQ	$8, CX
	JNZ	sgdmloop
	VZEROUPPER
	RET

// func vecAddDiffAsm(dst, a, b *float32, n int)
// dst[i] += a[i] - b[i]
TEXT ·vecAddDiffAsm(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	a+8(FP), SI
	MOVQ	b+16(FP), BX
	MOVQ	n+24(FP), CX

adiffloop:
	VMOVUPS	(SI), Y1            // a
	VMOVUPS	(BX), Y2            // b
	VSUBPS	Y2, Y1, Y3          // a - b
	VMOVUPS	(DI), Y4
	VADDPS	Y3, Y4, Y4          // dst + (a-b)
	VMOVUPS	Y4, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	ADDQ	$32, BX
	SUBQ	$8, CX
	JNZ	adiffloop
	VZEROUPPER
	RET

// func vecAxpyDiffAsm(dst, a, b *float32, n int, m float32)
// dst[i] += m*(a[i] - b[i])
TEXT ·vecAxpyDiffAsm(SB), NOSPLIT, $0-36
	MOVQ	dst+0(FP), DI
	MOVQ	a+8(FP), SI
	MOVQ	b+16(FP), BX
	MOVQ	n+24(FP), CX
	VBROADCASTSS	m+32(FP), Y0

axdiffloop:
	VMOVUPS	(SI), Y1            // a
	VMOVUPS	(BX), Y2            // b
	VSUBPS	Y2, Y1, Y3          // a - b
	VMULPS	Y3, Y0, Y3          // m*(a-b)
	VMOVUPS	(DI), Y4
	VADDPS	Y3, Y4, Y4          // dst + m*(a-b)
	VMOVUPS	Y4, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	ADDQ	$32, BX
	SUBQ	$8, CX
	JNZ	axdiffloop
	VZEROUPPER
	RET

// func vecAccumScaledAsm(acc *float64, v *float32, n int, w float64)
// acc[i] += w*float64(v[i]); the body is vecAccumScaledLEAsm's, whose
// frame is identical.
TEXT ·vecAccumScaledAsm(SB), NOSPLIT, $0-32
	JMP	·vecAccumScaledLEAsm(SB)

// func vecAccumScaledLEAsm(acc *float64, src *byte, n int, w float64)
// acc[i] += w*float64(f32 at src[4i]); src needs no alignment.
TEXT ·vecAccumScaledLEAsm(SB), NOSPLIT, $0-32
	MOVQ	acc+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSD	w+24(FP), Y0
	// The loop is the whole of a dense fold. Aligned, its ≈ 34 bytes sit
	// in one 64-byte line wherever the linker places the function; a
	// line-crossing placement ran ingest_10k's rounds ≈ 15 % slower.
	PCALIGN	$64

accloop:
	VCVTPS2PD	(SI), Y1        // widen 4 floats (exact)
	VMULPD	Y1, Y0, Y2          // w*v
	VMOVUPD	(DI), Y3
	VADDPD	Y2, Y3, Y3          // acc + w*v
	VMOVUPD	Y3, (DI)
	ADDQ	$16, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	accloop
	VZEROUPPER
	RET

// func vecDivF64ToF32Asm(dst *float32, src *float64, n int, d float64, clr int)
// dst[i] = float32(src[i] / d); src[i] = 0 after its load when clr != 0.
// src is the first source of VDIVPD, as x is DIVSD's destination in the
// scalar x / d, so a NaN operand propagates the same payload.
TEXT ·vecDivF64ToF32Asm(SB), NOSPLIT, $0-40
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSD	d+24(FP), Y0
	MOVQ	clr+32(FP), AX
	TESTQ	AX, AX
	JNZ	divclr

divloop:
	VMOVUPD	(SI), Y1
	VDIVPD	Y0, Y1, Y1          // src / d (IEEE-exact per lane)
	VCVTPD2PSY	Y1, X1          // round-to-nearest-even
	VMOVUPS	X1, (DI)
	ADDQ	$32, SI
	ADDQ	$16, DI
	SUBQ	$4, CX
	JNZ	divloop
	VZEROUPPER
	RET

divclr:
	VXORPD	Y2, Y2, Y2

divclrloop:
	VMOVUPD	(SI), Y1
	VMOVUPD	Y2, (SI)            // clear the lane just read
	VDIVPD	Y0, Y1, Y1
	VCVTPD2PSY	Y1, X1
	VMOVUPS	X1, (DI)
	ADDQ	$32, SI
	ADDQ	$16, DI
	SUBQ	$4, CX
	JNZ	divclrloop
	VZEROUPPER
	RET

// func vecLEToF32Asm(dst *float32, src *byte, n int)
// The decode direction is vecF32ToLEAsm's body, whose frame is identical.
TEXT ·vecLEToF32Asm(SB), NOSPLIT, $0-24
	JMP	·vecF32ToLEAsm(SB)

// func vecF32ToLEAsm(dst *byte, src *float32, n int)
// Little-endian float32 bytes are the floats' memory image on amd64, so
// both directions of the dense codec are one copy of 4n bytes, unaligned
// on either side: 32 floats per pass while they last, then 8.
TEXT ·vecF32ToLEAsm(SB), NOSPLIT, $0-24
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	CMPQ	CX, $32
	JLT	cp8

cp32:
	VMOVUPS	(SI), Y0
	VMOVUPS	32(SI), Y1
	VMOVUPS	64(SI), Y2
	VMOVUPS	96(SI), Y3
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, SI
	ADDQ	$128, DI
	SUBQ	$32, CX
	CMPQ	CX, $32
	JGE	cp32
	TESTQ	CX, CX
	JZ	cpdone

cp8:
	VMOVUPS	(SI), Y0
	VMOVUPS	Y0, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	cp8

cpdone:
	VZEROUPPER
	RET

// func vecBNTrainAsm(out, x *float32, n int, mean, inv, gv, b float64)
// xh = (float64(x)-mean)*inv; out = float32(g*xh + b)
TEXT ·vecBNTrainAsm(SB), NOSPLIT, $0-56
	MOVQ	out+0(FP), DI
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSD	mean+24(FP), Y0
	VBROADCASTSD	inv+32(FP), Y1
	VBROADCASTSD	gv+40(FP), Y2
	VBROADCASTSD	b+48(FP), Y3

bntloop:
	VCVTPS2PD	(SI), Y4        // x
	VSUBPD	Y0, Y4, Y4          // x - mean
	VMULPD	Y1, Y4, Y4          // xh = (x-mean)*inv
	VMULPD	Y4, Y2, Y6          // g*xh
	VADDPD	Y3, Y6, Y6          // g*xh + b
	VCVTPD2PSY	Y6, X7
	VMOVUPS	X7, (DI)
	ADDQ	$16, SI
	ADDQ	$16, DI
	SUBQ	$4, CX
	JNZ	bntloop
	VZEROUPPER
	RET

// func vecBNXhatAsm(xhat, x *float32, n int, mean, inv float64)
// xhat = float32((float64(x)-mean)*inv)
TEXT ·vecBNXhatAsm(SB), NOSPLIT, $0-40
	MOVQ	xhat+0(FP), DI
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSD	mean+24(FP), Y0
	VBROADCASTSD	inv+32(FP), Y1

bnxloop:
	VCVTPS2PD	(SI), Y4        // x
	VSUBPD	Y0, Y4, Y4          // x - mean
	VMULPD	Y1, Y4, Y4          // (x-mean)*inv
	VCVTPD2PSY	Y4, X5
	VMOVUPS	X5, (DI)
	ADDQ	$16, SI
	ADDQ	$16, DI
	SUBQ	$4, CX
	JNZ	bnxloop
	VZEROUPPER
	RET

// func vecBNEvalAsm(out, x *float32, n int, mean, inv, gv, b float64)
// out = float32(g*(float64(x)-mean)*inv + b), multiplies left-to-right
TEXT ·vecBNEvalAsm(SB), NOSPLIT, $0-56
	MOVQ	out+0(FP), DI
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSD	mean+24(FP), Y0
	VBROADCASTSD	inv+32(FP), Y1
	VBROADCASTSD	gv+40(FP), Y2
	VBROADCASTSD	b+48(FP), Y3

bneloop:
	VCVTPS2PD	(SI), Y4        // x
	VSUBPD	Y0, Y4, Y4          // x - mean
	VMULPD	Y4, Y2, Y5          // g*(x-mean)
	VMULPD	Y1, Y5, Y5          // *inv
	VADDPD	Y3, Y5, Y5          // + b
	VCVTPD2PSY	Y5, X6
	VMOVUPS	X6, (DI)
	ADDQ	$16, SI
	ADDQ	$16, DI
	SUBQ	$4, CX
	JNZ	bneloop
	VZEROUPPER
	RET

// func vecBNBwdAsm(dx, dout, xhat *float32, n int, scale, cnt, dbeta, dgamma float64)
// dx = float32(scale * (cnt*float64(dout) - dbeta - float64(xhat)*dgamma))
TEXT ·vecBNBwdAsm(SB), NOSPLIT, $0-64
	MOVQ	dx+0(FP), DI
	MOVQ	dout+8(FP), SI
	MOVQ	xhat+16(FP), BX
	MOVQ	n+24(FP), CX
	VBROADCASTSD	scale+32(FP), Y0
	VBROADCASTSD	cnt+40(FP), Y1
	VBROADCASTSD	dbeta+48(FP), Y2
	VBROADCASTSD	dgamma+56(FP), Y3

bnbloop:
	VCVTPS2PD	(SI), Y4        // g = dout
	VMULPD	Y4, Y1, Y5          // cnt*g
	VSUBPD	Y2, Y5, Y5          // cnt*g - dbeta
	VCVTPS2PD	(BX), Y6        // xh = xhat
	VMULPD	Y3, Y6, Y6          // xh*dgamma
	VSUBPD	Y6, Y5, Y5          // (cnt*g - dbeta) - xh*dgamma
	VMULPD	Y5, Y0, Y5          // scale*(...)
	VCVTPD2PSY	Y5, X7
	VMOVUPS	X7, (DI)
	ADDQ	$16, SI
	ADDQ	$16, DI
	ADDQ	$16, BX
	SUBQ	$4, CX
	JNZ	bnbloop
	VZEROUPPER
	RET

// func copyRowsAsm(dst *float32, dpitch int, src *float32, spitch, rows, w int)
// Registers: DI/SI row cursors, R8/R9 pitches in bytes, CX rows left, DX row
// bytes, BX offset of the vector flush with the row's end, AX offset.
TEXT ·copyRowsAsm(SB), NOSPLIT, $0-48
	MOVQ	dst+0(FP), DI
	MOVQ	dpitch+8(FP), R8
	MOVQ	src+16(FP), SI
	MOVQ	spitch+24(FP), R9
	MOVQ	rows+32(FP), CX
	MOVQ	w+40(FP), DX
	SHLQ	$2, DX
	CMPQ	DX, $32
	JLT	crnarrow
	LEAQ	-32(DX), BX

crrow:
	XORQ	AX, AX
	JMP	crtest

crchunk:
	VMOVUPS	(SI)(AX*1), Y0
	VMOVUPS	Y0, (DI)(AX*1)
	ADDQ	$32, AX

crtest:
	CMPQ	AX, BX
	JLT	crchunk
	VMOVUPS	(SI)(BX*1), Y0
	VMOVUPS	Y0, (DI)(BX*1)
	ADDQ	R9, SI
	ADDQ	R8, DI
	DECQ	CX
	JNZ	crrow
	VZEROUPPER
	RET

crnarrow:
	LEAQ	-16(DX), BX

crnrow:
	VMOVUPS	(SI), X0
	VMOVUPS	(SI)(BX*1), X1
	VMOVUPS	X0, (DI)
	VMOVUPS	X1, (DI)(BX*1)
	ADDQ	R9, SI
	ADDQ	R8, DI
	DECQ	CX
	JNZ	crnrow
	VZEROUPPER
	RET
