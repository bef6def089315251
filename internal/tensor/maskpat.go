package tensor

import "fmt"

// MaskPat is the precomputed nonzero pattern of an (M,K) row-major
// matrix: rowOff[i]..rowOff[i+1] index rowIdx, the ascending nonzero
// column positions of row i. MatMulMaskPatSlice walks it instead of the
// whole row, so a product with a masked matrix visits only the surviving
// weights. No layer runs it; it stays as a measured kernel.
type MaskPat struct {
	M, K           int
	rowOff, rowIdx []int32
}

// NNZ returns the number of nonzero entries recorded.
func (p *MaskPat) NNZ() int { return len(p.rowIdx) }

// BuildMaskPat scans an (m,k) row-major matrix and records its exact
// nonzero pattern.
func BuildMaskPat(a []float32, m, k int) *MaskPat {
	if len(a) < m*k {
		panic(fmt.Sprintf("tensor: BuildMaskPat operand %d short of %dx%d", len(a), m, k))
	}
	pat := &MaskPat{M: m, K: k, rowOff: make([]int32, m+1)}
	for i := 0; i < m; i++ {
		pat.rowOff[i] = int32(len(pat.rowIdx))
		for j, v := range a[i*k : i*k+k] {
			if v != 0 {
				pat.rowIdx = append(pat.rowIdx, int32(j))
			}
		}
	}
	pat.rowOff[m] = int32(len(pat.rowIdx))
	return pat
}

// MatMulMaskPatSlice computes C = W·B for the (M,K) matrix W whose
// nonzero pattern is pat, B (K,n), C (M,n) fully overwritten. Each output
// is an ascending-p chain from +0 over W's nonzeros, so it equals the
// dense product bit for bit on finite data: a skipped term is ±0, which
// leaves a sum that is never −0 unchanged.
func MatMulMaskPatSlice(c, w, b []float32, pat *MaskPat, n int) {
	k := pat.K
	for i := 0; i < pat.M; i++ {
		ci := c[i*n : i*n+n]
		clear(ci)
		wi := w[i*k : i*k+k]
		for _, p := range pat.rowIdx[pat.rowOff[i]:pat.rowOff[i+1]] {
			VecAxpy(ci, b[int(p)*n:int(p)*n+n], wi[p])
		}
	}
}
