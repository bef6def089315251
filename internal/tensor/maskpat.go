package tensor

import "fmt"

// Mask-static sparse GEMM: the zero-skipping kernels in matmul.go pay a
// branch per left-operand element to find the zeros, every call. Under a
// mask-static federation (algo.SSFL) the zero pattern of a weight matrix
// is decided once at mask agreement and then only its *values* change,
// so the pattern can be computed once per mask epoch and the kernels can
// walk precomputed index lists instead of probing.
//
// A MaskPat records the exact nonzero coordinates of an (M,K) matrix in
// both row-major and column-major order. The pattern kernels visit
// exactly the elements the probing kernels visit, in the same ascending
// order, through the same VecAxpy accumulation — so they are bitwise
// identical to matmulRowsSparse / matmulTransAColsSparse by
// construction (skipping must match exactly: accumulating a 0·b term
// the probe kernel skips could flip a -0 to +0).
//
// Invalidation is the caller's job: patterns are derived data, keyed on
// the weight tensor's mutation counter exactly like Linear's Wᵀ cache
// in internal/nn (see Param.Bump).

// MaskPat is the precomputed nonzero pattern of an (M,K) row-major
// matrix.
type MaskPat struct {
	M, K int
	// rowOff[i]..rowOff[i+1] index rowIdx: the ascending nonzero column
	// positions of row i.
	rowOff, rowIdx []int32
	// colOff[j]..colOff[j+1] index colIdx: the ascending nonzero row
	// positions of column j.
	colOff, colIdx []int32
}

// NNZ returns the number of nonzero entries recorded.
func (p *MaskPat) NNZ() int { return len(p.rowIdx) }

// Matches reports whether the pattern was built for an (m,k) matrix.
func (p *MaskPat) Matches(m, k int) bool { return p != nil && p.M == m && p.K == k }

// BuildMaskPat scans an (m,k) row-major matrix and records its exact
// nonzero pattern.
func BuildMaskPat(a []float32, m, k int) *MaskPat {
	return BuildMaskPatInto(nil, a, m, k)
}

// BuildMaskPatInto is BuildMaskPat reusing pat's backing slices when
// their capacities suffice. Returns pat (or a fresh pattern when pat is
// nil).
func BuildMaskPatInto(pat *MaskPat, a []float32, m, k int) *MaskPat {
	if len(a) < m*k {
		panic(fmt.Sprintf("tensor: BuildMaskPat operand %d short of %dx%d", len(a), m, k))
	}
	if pat == nil {
		pat = &MaskPat{}
	}
	pat.M, pat.K = m, k
	pat.rowOff = sizeI32(pat.rowOff, m+1)
	pat.colOff = sizeI32(pat.colOff, k+1)
	// First pass: count nonzeros per row and per column.
	colCount := pat.colOff // reuse as the counting buffer, shifted below
	for j := range colCount {
		colCount[j] = 0
	}
	nnz := 0
	for i := 0; i < m; i++ {
		pat.rowOff[i] = int32(nnz)
		row := a[i*k : i*k+k]
		for j, v := range row {
			if v != 0 {
				nnz++
				colCount[j+1]++
			}
		}
	}
	pat.rowOff[m] = int32(nnz)
	pat.rowIdx = sizeI32(pat.rowIdx, nnz)
	pat.colIdx = sizeI32(pat.colIdx, nnz)
	// Prefix-sum the column counts into offsets.
	for j := 1; j <= k; j++ {
		colCount[j] += colCount[j-1]
	}
	// Second pass: fill both index lists. Scanning rows in ascending
	// order fills each column's list in ascending row order.
	cursor := make([]int32, k)
	copy(cursor, colCount[:k])
	ri := 0
	for i := 0; i < m; i++ {
		row := a[i*k : i*k+k]
		for j, v := range row {
			if v != 0 {
				pat.rowIdx[ri] = int32(j)
				ri++
				pat.colIdx[cursor[j]] = int32(i)
				cursor[j]++
			}
		}
	}
	return pat
}

// sizeI32 returns dst resized to length n, reusing its backing array
// when the capacity suffices.
func sizeI32(dst []int32, n int) []int32 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]int32, n)
}

// MatMulMaskPatSlice computes C = W·B for the (M,K) matrix W whose
// nonzero pattern is pat, B (K,n), C (M,n) fully overwritten — the
// mask-static form of MatMulSparseSlice, bitwise identical to it when
// pat records W's exact zeros.
func MatMulMaskPatSlice(c, w, b []float32, pat *MaskPat, n int) {
	k := pat.K
	for i := 0; i < pat.M; i++ {
		ci := c[i*n : i*n+n]
		for x := range ci {
			ci[x] = 0
		}
		wi := w[i*k : i*k+k]
		for _, p := range pat.rowIdx[pat.rowOff[i]:pat.rowOff[i+1]] {
			// Same VecAxpy, same ascending-p order as matmulRowsSparse.
			VecAxpy(ci, b[int(p)*n:int(p)*n+n], wi[p])
		}
	}
}

// MatMulTransAMaskPatSlice computes C = Wᵀ·B for the (M,K) matrix W
// whose nonzero pattern is pat, B (M,n), C (K,n) fully overwritten —
// the mask-static form of MatMulTransASparseSlice, bitwise identical to
// it when pat records W's exact zeros.
func MatMulTransAMaskPatSlice(c, w, b []float32, pat *MaskPat, n int) {
	k := pat.K
	for i := 0; i < k; i++ {
		ci := c[i*n : i*n+n]
		for x := range ci {
			ci[x] = 0
		}
		for _, p := range pat.colIdx[pat.colOff[i]:pat.colOff[i+1]] {
			// Same VecAxpy, same ascending-p order as matmulTransAColsSparse.
			VecAxpy(ci, b[int(p)*n:int(p)*n+n], w[int(p)*k+i])
		}
	}
}

// MatMulTransBMaskPatSlice computes C = A·Wᵀ for A (m, K) and the (M,K)
// pattern-carrying matrix W, C (m, M) fully overwritten. Each output is
// a gather-dot over row i's nonzero positions in ascending order — the
// mask-static sparse form of the x·Wᵀ product of linear layers. It sums exactly the nonzero terms of the dense dot product.
func MatMulTransBMaskPatSlice(c, a, w []float32, pat *MaskPat, m int) {
	k, outs := pat.K, pat.M
	for i := 0; i < m; i++ {
		ai := a[i*k : i*k+k]
		ci := c[i*outs : i*outs+outs]
		for j := 0; j < outs; j++ {
			wj := w[j*k : j*k+k]
			var s float32
			for _, p := range pat.rowIdx[pat.rowOff[j]:pat.rowOff[j+1]] {
				s += ai[p] * wj[p]
			}
			ci[j] = s
		}
	}
}

// MatMulMaskPatRightSlice computes C = A·W for A (m, M) and the (M,K)
// pattern-carrying matrix W, C (m, K) fully overwritten. Each output is
// a gather-dot over column j's nonzero rows in ascending order — the
// mask-static sparse form of the dx = dout·W backward GEMM.
func MatMulMaskPatRightSlice(c, a, w []float32, pat *MaskPat, m int) {
	k, ins := pat.K, pat.M
	for i := 0; i < m; i++ {
		ai := a[i*ins : i*ins+ins]
		ci := c[i*k : i*k+k]
		for j := 0; j < k; j++ {
			var s float32
			for _, p := range pat.colIdx[pat.colOff[j]:pat.colOff[j+1]] {
				s += ai[p] * w[int(p)*k+j]
			}
			ci[j] = s
		}
	}
}
