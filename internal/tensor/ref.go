package tensor

// Reference kernels: straightforward triple loops retained as the ground
// truth the Gemm tiles are verified against (simd_test.go,
// kernels_test.go, and nn's conv and linear tests — which is why they
// are not in a _test.go file). They accumulate each output element in
// ascending-k order, the same order the tiles preserve, so equivalence
// tests can demand exact equality, not just tolerance.

// RefMatMul computes C = A·B with the naive reference kernel.
func RefMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

// RefMatMulTransB computes C = A·Bᵀ with the naive reference kernel.
func RefMatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(0)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[j*k+p]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

// RefMatMulTransA computes C = Aᵀ·B with the naive reference kernel.
func RefMatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[p*m+i] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}
