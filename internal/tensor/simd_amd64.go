package tensor

// AVX2 acceleration for Gemm. The vector tiles compute every output
// element as the same single ascending-k dot-product chain as gemmGo
// (multiply then add, no FMA contraction), so the two are bitwise
// interchangeable; which one runs is purely a performance decision made
// at startup from CPUID.

func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// gemmArgs is the argument block of the assembly tiles (field offsets
// are mirrored in simd_amd64.s). Strides are in bytes.
type gemmArgs struct {
	a        *float32
	ars, aks int
	b        *float32
	ldb      int
	offs     *int32 // nil: B row p at p·ldb
	k        int
	c        *float32
	ldc      int
	m        int
	jbytes   int // gemmPanels16: 64 × the number of full panels
	acc      int
	mask     *int32 // gemmPanel8: the 8 lane masks
}

//go:noescape
func gemmPanels16(args *gemmArgs)

//go:noescape
func gemmPanel8(args *gemmArgs)

// transposeViews8 is TransposeViews for rows ≥ 8 and span ≥ 8, arguments
// already validated: 8 views × 8 positions per block, transposed in
// registers; the last row block and the last position block are placed
// flush with the end, so they overlap their neighbours and rewrite equal
// values instead of masking a tail.
//
//go:noescape
func transposeViews8(dst, src *float32, offs *int32, rows, span int)

// laneMasks[8-w:] is the VMASKMOVPS mask selecting the first w of 8 lanes.
var laneMasks = [16]int32{-1, -1, -1, -1, -1, -1, -1, -1}

// useAVX2 reports whether the CPU and OS support AVX2 with YMM state
// saving (CPUID leaf 7 AVX2, plus OSXSAVE and XCR0 XMM|YMM bits).
var useAVX2 = func() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuidAsm(7, 0)
	return b&(1<<5) != 0
}()

// gemmAVX2 runs Gemm on the vector tiles: all full 16-column panels in
// one call, then the remaining columns as at most two ≤8-column panels.
// Arguments are already validated by Gemm.
func gemmAVX2(c []float32, ldc int, a []float32, ars, aks int, b []float32, ldb int, offs []int32, m, k, n int, acc bool) {
	if k == 0 {
		// Nothing to read, and a and b may be empty.
		gemmGo(c, ldc, a, ars, aks, b, ldb, offs, m, k, n, acc)
		return
	}
	g := gemmArgs{
		a: &a[0], ars: 4 * ars, aks: 4 * aks,
		ldb: 4 * ldb, k: k, ldc: 4 * ldc, m: m,
	}
	if offs != nil {
		g.offs = &offs[0]
	}
	if acc {
		g.acc = 1
	}
	full := n &^ 15
	if full > 0 {
		g.b, g.c, g.jbytes = &b[0], &c[0], 4*full
		gemmPanels16(&g)
	}
	for j := full; j < n; j += 8 {
		w := min(8, n-j)
		g.b, g.c, g.mask = &b[j], &c[j], &laneMasks[8-w]
		gemmPanel8(&g)
	}
}
