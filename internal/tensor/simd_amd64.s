// AVX2 tiles for the strided GEMM (see gemm in matmul.go). Each output
// element is a single dot-product accumulator advanced in ascending-k order
// with separate multiply and add (no FMA), so results are bitwise identical
// to the pure-Go kernel: vectorization is across independent output columns,
// never across k.

#include "textflag.h"

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL	eaxIn+0(FP), AX
	MOVL	ecxIn+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL	CX, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	MOVL	DX, edx+4(FP)
	RET

// gemmArgs field offsets (strides in bytes).
#define G_A      0
#define G_ARS    8
#define G_AKS    16
#define G_B      24
#define G_LDB    32
#define G_OFFS   40
#define G_K      48
#define G_C      56
#define G_LDC    64
#define G_M      72
#define G_JBYTES 80
#define G_ACC    88
#define G_MASK   96

// ROWOFFS sets R8/R9/R11 to the byte offsets of tile rows 1..3 from row 0,
// clamped to the last of the R14 rows that remain, so a short tile re-reads
// a valid row instead of running past A; its surplus sums are never stored.
#define ROWOFFS \
	MOVQ	G_ARS(AX), DX; \
	XORQ	R8, R8; \
	CMPQ	R14, $2; \
	CMOVQGE	DX, R8; \
	MOVQ	R8, R9; \
	LEAQ	(DX)(DX*1), CX; \
	CMPQ	R14, $3; \
	CMOVQGE	CX, R9; \
	MOVQ	R9, R11; \
	ADDQ	DX, CX; \
	CMPQ	R14, $4; \
	CMOVQGE	CX, R11

// STEP16 advances the eight accumulators of a 4×16 tile by one k: two
// 8-float loads of the B row at R12, four broadcasts down the A column at SI.
#define STEP16 \
	VMOVUPS	(R12), Y8; \
	VMOVUPS	32(R12), Y9; \
	VBROADCASTSS	(SI), Y10; \
	VMULPS	Y8, Y10, Y11; \
	VADDPS	Y11, Y0, Y0; \
	VMULPS	Y9, Y10, Y12; \
	VADDPS	Y12, Y1, Y1; \
	VBROADCASTSS	(SI)(R8*1), Y10; \
	VMULPS	Y8, Y10, Y11; \
	VADDPS	Y11, Y2, Y2; \
	VMULPS	Y9, Y10, Y12; \
	VADDPS	Y12, Y3, Y3; \
	VBROADCASTSS	(SI)(R9*1), Y10; \
	VMULPS	Y8, Y10, Y11; \
	VADDPS	Y11, Y4, Y4; \
	VMULPS	Y9, Y10, Y12; \
	VADDPS	Y12, Y5, Y5; \
	VBROADCASTSS	(SI)(R11*1), Y10; \
	VMULPS	Y8, Y10, Y11; \
	VADDPS	Y11, Y6, Y6; \
	VMULPS	Y9, Y10, Y12; \
	VADDPS	Y12, Y7, Y7; \
	ADDQ	R10, SI

// STEP8 is STEP16 for a panel of at most 8 columns, selected by the lane
// mask in Y13: masked-off lanes are neither read nor written.
#define STEP8 \
	VMASKMOVPS	(R12), Y13, Y8; \
	VBROADCASTSS	(SI), Y10; \
	VMULPS	Y8, Y10, Y11; \
	VADDPS	Y11, Y0, Y0; \
	VBROADCASTSS	(SI)(R8*1), Y10; \
	VMULPS	Y8, Y10, Y11; \
	VADDPS	Y11, Y1, Y1; \
	VBROADCASTSS	(SI)(R9*1), Y10; \
	VMULPS	Y8, Y10, Y11; \
	VADDPS	Y11, Y2, Y2; \
	VBROADCASTSS	(SI)(R11*1), Y10; \
	VMULPS	Y8, Y10, Y11; \
	VADDPS	Y11, Y3, Y3; \
	ADDQ	R10, SI

// func gemmPanels16(args *gemmArgs)
//
// Computes every row of the G_JBYTES/64 full 16-column panels of C, for
// k ≥ 1. Per panel the row tiles run top to bottom so the panel's k B rows
// stay in L1 across them. Registers: AX args, BX B panel, DI C tile, R15 A tile,
// R14 rows left, SI A cursor, R12 B row, R13 ldb or offset table, R10 aks.
TEXT ·gemmPanels16(SB), NOSPLIT, $8-8
	MOVQ	args+0(FP), AX
	MOVQ	G_AKS(AX), R10
	MOVQ	$0, joff-8(SP)

panel:
	MOVQ	joff-8(SP), DX
	MOVQ	G_B(AX), BX
	ADDQ	DX, BX
	MOVQ	G_C(AX), DI
	ADDQ	DX, DI
	MOVQ	G_A(AX), R15
	MOVQ	G_M(AX), R14

tile:
	ROWOFFS
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	VXORPS	Y4, Y4, Y4
	VXORPS	Y5, Y5, Y5
	VXORPS	Y6, Y6, Y6
	VXORPS	Y7, Y7, Y7
	MOVQ	R15, SI
	MOVQ	G_K(AX), CX
	MOVQ	G_OFFS(AX), R13
	TESTQ	R13, R13
	JNZ	table
	MOVQ	G_LDB(AX), R13
	MOVQ	BX, R12

strided:
	STEP16
	ADDQ	R13, R12
	DECQ	CX
	JNZ	strided
	JMP	store

table:
	XORQ	DX, DX

tableloop:
	MOVLQSX	(R13)(DX*4), R12
	LEAQ	(BX)(R12*4), R12
	STEP16
	INCQ	DX
	CMPQ	DX, CX
	JLT	tableloop

store:
	MOVQ	G_LDC(AX), DX
	MOVQ	DI, R12
	CMPQ	G_ACC(AX), $0
	JNE	accum
	VMOVUPS	Y0, (R12)
	VMOVUPS	Y1, 32(R12)
	CMPQ	R14, $2
	JLT	next
	ADDQ	DX, R12
	VMOVUPS	Y2, (R12)
	VMOVUPS	Y3, 32(R12)
	CMPQ	R14, $3
	JLT	next
	ADDQ	DX, R12
	VMOVUPS	Y4, (R12)
	VMOVUPS	Y5, 32(R12)
	CMPQ	R14, $4
	JLT	next
	ADDQ	DX, R12
	VMOVUPS	Y6, (R12)
	VMOVUPS	Y7, 32(R12)
	JMP	next

accum:
	VADDPS	(R12), Y0, Y0
	VMOVUPS	Y0, (R12)
	VADDPS	32(R12), Y1, Y1
	VMOVUPS	Y1, 32(R12)
	CMPQ	R14, $2
	JLT	next
	ADDQ	DX, R12
	VADDPS	(R12), Y2, Y2
	VMOVUPS	Y2, (R12)
	VADDPS	32(R12), Y3, Y3
	VMOVUPS	Y3, 32(R12)
	CMPQ	R14, $3
	JLT	next
	ADDQ	DX, R12
	VADDPS	(R12), Y4, Y4
	VMOVUPS	Y4, (R12)
	VADDPS	32(R12), Y5, Y5
	VMOVUPS	Y5, 32(R12)
	CMPQ	R14, $4
	JLT	next
	ADDQ	DX, R12
	VADDPS	(R12), Y6, Y6
	VMOVUPS	Y6, (R12)
	VADDPS	32(R12), Y7, Y7
	VMOVUPS	Y7, 32(R12)

next:
	SUBQ	$4, R14
	JLE	paneldone
	MOVQ	G_ARS(AX), DX
	LEAQ	(R15)(DX*4), R15
	MOVQ	G_LDC(AX), DX
	LEAQ	(DI)(DX*4), DI
	JMP	tile

paneldone:
	MOVQ	joff-8(SP), DX
	ADDQ	$64, DX
	MOVQ	DX, joff-8(SP)
	CMPQ	DX, G_JBYTES(AX)
	JLT	panel
	VZEROUPPER
	RET

// func gemmPanel8(args *gemmArgs)
//
// Computes every row of one panel of at most 8 columns starting at G_B/G_C,
// the lanes given by the 8-int32 mask at G_MASK, for k ≥ 1. Same registers as
// gemmPanels16.
TEXT ·gemmPanel8(SB), NOSPLIT, $0-8
	MOVQ	args+0(FP), AX
	MOVQ	G_AKS(AX), R10
	MOVQ	G_MASK(AX), DX
	VMOVDQU	(DX), Y13
	MOVQ	G_B(AX), BX
	MOVQ	G_C(AX), DI
	MOVQ	G_A(AX), R15
	MOVQ	G_M(AX), R14

tile:
	ROWOFFS
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	MOVQ	R15, SI
	MOVQ	G_K(AX), CX
	MOVQ	G_OFFS(AX), R13
	TESTQ	R13, R13
	JNZ	table
	MOVQ	G_LDB(AX), R13
	MOVQ	BX, R12

strided:
	STEP8
	ADDQ	R13, R12
	DECQ	CX
	JNZ	strided
	JMP	store

table:
	XORQ	DX, DX

tableloop:
	MOVLQSX	(R13)(DX*4), R12
	LEAQ	(BX)(R12*4), R12
	STEP8
	INCQ	DX
	CMPQ	DX, CX
	JLT	tableloop

store:
	MOVQ	G_LDC(AX), DX
	MOVQ	DI, R12
	CMPQ	G_ACC(AX), $0
	JNE	accum
	VMASKMOVPS	Y0, Y13, (R12)
	CMPQ	R14, $2
	JLT	next
	ADDQ	DX, R12
	VMASKMOVPS	Y1, Y13, (R12)
	CMPQ	R14, $3
	JLT	next
	ADDQ	DX, R12
	VMASKMOVPS	Y2, Y13, (R12)
	CMPQ	R14, $4
	JLT	next
	ADDQ	DX, R12
	VMASKMOVPS	Y3, Y13, (R12)
	JMP	next

accum:
	VMASKMOVPS	(R12), Y13, Y8
	VADDPS	Y8, Y0, Y0
	VMASKMOVPS	Y0, Y13, (R12)
	CMPQ	R14, $2
	JLT	next
	ADDQ	DX, R12
	VMASKMOVPS	(R12), Y13, Y8
	VADDPS	Y8, Y1, Y1
	VMASKMOVPS	Y1, Y13, (R12)
	CMPQ	R14, $3
	JLT	next
	ADDQ	DX, R12
	VMASKMOVPS	(R12), Y13, Y8
	VADDPS	Y8, Y2, Y2
	VMASKMOVPS	Y2, Y13, (R12)
	CMPQ	R14, $4
	JLT	next
	ADDQ	DX, R12
	VMASKMOVPS	(R12), Y13, Y8
	VADDPS	Y8, Y3, Y3
	VMASKMOVPS	Y3, Y13, (R12)

next:
	SUBQ	$4, R14
	JLE	done
	MOVQ	G_ARS(AX), DX
	LEAQ	(R15)(DX*4), R15
	MOVQ	G_LDC(AX), DX
	LEAQ	(DI)(DX*4), DI
	JMP	tile

done:
	VZEROUPPER
	RET

// VIEW loads positions [R14, R14+8) of the view whose offset is the i-th
// int32 at DX.
#define VIEW(i, Y) \
	MOVLQSX	4*i(DX), AX; \
	ADDQ	R14, AX; \
	VMOVUPS	(SI)(AX*4), Y

// PUT stores one transposed row and steps DX to the next dst row.
#define PUT(Y) \
	VMOVUPS	Y, (DX); \
	ADDQ	R10, DX

// func transposeViews8(dst, src *float32, offs *int32, rows, span int)
//
// dst[j·rows+r] = src[offs[r]+j] in 8×8 blocks, position blocks outermost so
// dst is written front to back. Registers: DI dst, SI src, BX offs, R8 rows,
// R9 span, R10 dst pitch in bytes, R13/R15 block origins j/r, R14/CX the same
// clamped to span−8/rows−8 (R12/R11).
TEXT ·transposeViews8(SB), NOSPLIT, $0-40
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	offs+16(FP), BX
	MOVQ	rows+24(FP), R8
	MOVQ	span+32(FP), R9
	LEAQ	(R8*4), R10
	LEAQ	-8(R8), R11
	LEAQ	-8(R9), R12
	XORQ	R13, R13

jblock:
	MOVQ	R13, R14
	CMPQ	R14, R12
	CMOVQGT	R12, R14
	XORQ	R15, R15

rblock:
	MOVQ	R15, CX
	CMPQ	CX, R11
	CMOVQGT	R11, CX
	LEAQ	(BX)(CX*4), DX
	VIEW(0, Y0)
	VIEW(1, Y1)
	VIEW(2, Y2)
	VIEW(3, Y3)
	VIEW(4, Y4)
	VIEW(5, Y5)
	VIEW(6, Y6)
	VIEW(7, Y7)
	VUNPCKLPS	Y1, Y0, Y8
	VUNPCKHPS	Y1, Y0, Y9
	VUNPCKLPS	Y3, Y2, Y10
	VUNPCKHPS	Y3, Y2, Y11
	VUNPCKLPS	Y5, Y4, Y12
	VUNPCKHPS	Y5, Y4, Y13
	VUNPCKLPS	Y7, Y6, Y14
	VUNPCKHPS	Y7, Y6, Y15
	VSHUFPS	$0x44, Y10, Y8, Y0
	VSHUFPS	$0xEE, Y10, Y8, Y1
	VSHUFPS	$0x44, Y11, Y9, Y2
	VSHUFPS	$0xEE, Y11, Y9, Y3
	VSHUFPS	$0x44, Y14, Y12, Y4
	VSHUFPS	$0xEE, Y14, Y12, Y5
	VSHUFPS	$0x44, Y15, Y13, Y6
	VSHUFPS	$0xEE, Y15, Y13, Y7
	VPERM2F128	$0x20, Y4, Y0, Y8
	VPERM2F128	$0x20, Y5, Y1, Y9
	VPERM2F128	$0x20, Y6, Y2, Y10
	VPERM2F128	$0x20, Y7, Y3, Y11
	VPERM2F128	$0x31, Y4, Y0, Y12
	VPERM2F128	$0x31, Y5, Y1, Y13
	VPERM2F128	$0x31, Y6, Y2, Y14
	VPERM2F128	$0x31, Y7, Y3, Y15
	MOVQ	R14, DX
	IMULQ	R10, DX
	ADDQ	DI, DX
	LEAQ	(DX)(CX*4), DX
	PUT(Y8)
	PUT(Y9)
	PUT(Y10)
	PUT(Y11)
	PUT(Y12)
	PUT(Y13)
	PUT(Y14)
	PUT(Y15)
	ADDQ	$8, R15
	CMPQ	R15, R8
	JLT	rblock
	ADDQ	$8, R13
	CMPQ	R13, R9
	JLT	jblock
	VZEROUPPER
	RET
