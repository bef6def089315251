package tensor

import "fmt"

// parallelThreshold is the number of output elements above which the
// tensor-level products shard rows across goroutines. Below it the
// sequential kernel wins.
const parallelThreshold = 64 * 64

// Gemm is the one dense product every layer and entry point runs on:
//
//	C[i·ldc+j] (+)= Σ_p A[i·ars+p·aks] · B[off(p)+j]    i<m, j<n, p<k
//
// with off(p) = p·ldb, or offs[p] when offs is non-nil. B is the vector
// side, read as k rows of n contiguous floats wherever they lie (a
// row-major matrix, or overlapping views into an image); A is the
// broadcast side, read through a row stride and a k stride, so a
// transposed A costs nothing (ars=1, aks=rows). With acc each sum is
// formed first and added to C once, otherwise it overwrites C.
//
// Every output element is one chain over ascending p starting from zero,
// multiply then add with no fused step, on every path (the AVX2 4×16 tile,
// its masked ≤8-column tail, the pure-Go fallback), so which path runs —
// and how callers split m or n — never changes a bit of the result.
// Serial; callers own their parallelism.
func Gemm(c []float32, ldc int, a []float32, ars, aks int, b []float32, ldb int, offs []int32, m, k, n int, acc bool) {
	if m <= 0 || n <= 0 {
		return
	}
	if k < 0 || ldc < n || (m-1)*ldc+n > len(c) || (k > 0 && (m-1)*ars+(k-1)*aks >= len(a)) {
		panic(fmt.Sprintf("tensor: Gemm %dx%dx%d out of range: len(c)=%d ldc=%d len(a)=%d ars=%d aks=%d", m, k, n, len(c), ldc, len(a), ars, aks))
	}
	if offs != nil {
		for _, o := range offs[:k] {
			if o < 0 || int(o)+n > len(b) {
				panic(fmt.Sprintf("tensor: Gemm row offset %d with n=%d outside B of %d", o, n, len(b)))
			}
		}
	} else if k > 0 && (k-1)*ldb+n > len(b) {
		panic(fmt.Sprintf("tensor: Gemm B of %d short of %d rows of %d at pitch %d", len(b), k, n, ldb))
	}
	if useAVX2 {
		gemmAVX2(c, ldc, a, ars, aks, b, ldb, offs, m, k, n, acc)
		return
	}
	gemmGo(c, ldc, a, ars, aks, b, ldb, offs, m, k, n, acc)
}

// GemmParallel is Gemm with the output rows sharded across the worker
// pool when the product is large enough to pay for the dispatch. Row
// sharding never splits a dot-product chain, so the shard count does not
// affect results.
func GemmParallel(c []float32, ldc int, a []float32, ars, aks int, b []float32, ldb int, m, k, n int) {
	if m*n < parallelThreshold || m <= 1 {
		Gemm(c, ldc, a, ars, aks, b, ldb, nil, m, k, n, false)
		return
	}
	Parallel(m, func(lo, hi int) {
		Gemm(c[lo*ldc:], ldc, a[lo*ars:], ars, aks, b, ldb, nil, hi-lo, k, n, false)
	})
}

// gemmGo is the portable Gemm: column chunks of gemmGoCols, four rows at
// a time, each B row streamed once through four accumulator rows held on
// the stack, then stored or added to C.
func gemmGo(c []float32, ldc int, a []float32, ars, aks int, b []float32, ldb int, offs []int32, m, k, n int, acc bool) {
	const gemmGoCols = 64
	var t [4][gemmGoCols]float32
	for j0 := 0; j0 < n; j0 += gemmGoCols {
		w := min(gemmGoCols, n-j0)
		for i := 0; i < m; i += 4 {
			rows := min(4, m-i)
			for r := 0; r < rows; r++ {
				clear(t[r][:w])
			}
			for p := 0; p < k; p++ {
				off := p * ldb
				if offs != nil {
					off = int(offs[p])
				}
				bp := b[off+j0:][:w]
				for r := 0; r < rows; r++ {
					av := a[(i+r)*ars+p*aks]
					tr := t[r][:len(bp)]
					for x, bv := range bp {
						tr[x] += av * bv
					}
				}
			}
			for r := 0; r < rows; r++ {
				cr := c[(i+r)*ldc+j0:][:w]
				if !acc {
					copy(cr, t[r][:w])
					continue
				}
				for x, v := range t[r][:w] {
					cr[x] += v
				}
			}
		}
	}
}

// MatMulInto computes C = A·B into an existing output tensor, avoiding an
// allocation. C must have shape (m,n).
func MatMulInto(c, a, b *Tensor) {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if b.Dim(0) != k || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch C%v = A%v x B%v", c.shape, a.shape, b.shape))
	}
	GemmParallel(c.Data, n, a.Data, k, 1, b.Data, n, m, k, n)
}

// MatMulSlice computes C = A·B on raw row-major slices without shape
// checks or parallel dispatch: A is (m,k), B is (k,n), C is (m,n) and is
// fully overwritten. Intended for callers that manage their own
// parallelism.
func MatMulSlice(c, a, b []float32, m, k, n int) {
	Gemm(c, n, a, k, 1, b, n, nil, m, k, n, false)
}

// TransposeSlice writes src (rows,cols) into dst as its (cols,rows)
// transpose, tiling the traversal so both sides stay cache-resident. Within
// a tile, four source rows are read together so each destination row gets a
// contiguous 4-element write, halving the per-element overhead of the
// scattered side. It is the packing primitive behind the dense matmul paths.
func TransposeSlice(dst, src []float32, rows, cols int) {
	const tb = 32
	for jj := 0; jj < cols; jj += tb {
		je := jj + tb
		if je > cols {
			je = cols
		}
		for ii := 0; ii < rows; ii += tb {
			ie := ii + tb
			if ie > rows {
				ie = rows
			}
			i := ii
			for ; i+4 <= ie; i += 4 {
				s0 := src[(i+0)*cols : (i+0)*cols+cols]
				s1 := src[(i+1)*cols : (i+1)*cols+cols]
				s2 := src[(i+2)*cols : (i+2)*cols+cols]
				s3 := src[(i+3)*cols : (i+3)*cols+cols]
				for j := jj; j < je; j++ {
					d := dst[j*rows+i : j*rows+i+4]
					d[0], d[1], d[2], d[3] = s0[j], s1[j], s2[j], s3[j]
				}
			}
			for ; i < ie; i++ {
				row := src[i*cols : i*cols+cols]
				for j := jj; j < je; j++ {
					dst[j*rows+i] = row[j]
				}
			}
		}
	}
}

// MatMulTransBInto computes C = A·Bᵀ into an existing (m,n) output tensor,
// avoiding an allocation.
func MatMulTransBInto(c, a, b *Tensor) {
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shape mismatch C%v = A%v x B%vᵀ", c.shape, a.shape, b.shape))
	}
	bt := GetScratch(k * n)
	TransposeSlice(bt, b.Data, n, k)
	GemmParallel(c.Data, n, a.Data, k, 1, bt, n, m, k, n)
	PutScratch(bt)
}

// MatMulTransBSlice computes C = A·Bᵀ on raw slices (A (m,k), B (n,k),
// C (m,n) overwritten), serial, without shape checks. B's rows run along
// k, so this is the one product shape whose vector side must be
// transposed first.
func MatMulTransBSlice(c, a, b []float32, m, k, n int) {
	bt := GetScratch(k * n)
	TransposeSlice(bt, b, n, k)
	Gemm(c, n, a, k, 1, bt, n, nil, m, k, n, false)
	PutScratch(bt)
}

// MatMulTransAInto computes C = Aᵀ·B into an existing (m,n) output tensor,
// avoiding an allocation. A is read transposed through its strides.
func MatMulTransAInto(c, a, b *Tensor) {
	k, m := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto shape mismatch C%v = A%vᵀ x B%v", c.shape, a.shape, b.shape))
	}
	GemmParallel(c.Data, n, a.Data, 1, m, b.Data, n, m, k, n)
}

// MatMulTransASlice computes C = Aᵀ·B on raw slices (A (k,m), B (k,n),
// C (m,n) overwritten), serial, without shape checks.
func MatMulTransASlice(c, a, b []float32, m, k, n int) {
	Gemm(c, n, a, 1, m, b, n, nil, m, k, n, false)
}
