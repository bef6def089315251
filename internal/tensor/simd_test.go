package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// gemmKernels are the two implementations behind Gemm. On machines
// without AVX2 the vector entry aliases the portable one and the
// comparisons below degenerate to self-checks.
var gemmKernels = []struct {
	name string
	fn   func(c []float32, ldc int, a []float32, ars, aks int, b []float32, ldb int, offs []int32, m, k, n int, acc bool)
}{
	{"avx2", gemmAVX2},
	{"go", gemmGo},
}

// gemmOperands lays a dense (m,k) A and (k,n) B out the way Gemm's
// callers hold them. transA stores A as its (k,m) transpose, read back
// through ars=1; otherwise A is row-major at a pitch wider than k. table
// scatters B's rows over a buffer in shuffled order, some of them
// overlapping the way lowered-row views of a padded image do, and
// addresses them through an offset table; otherwise B is row-major at a
// pitch wider than n.
type gemmOperands struct {
	a        []float32
	ars, aks int
	b        []float32
	ldb      int
	offs     []int32
}

func layoutGemm(rng *rand.Rand, a, b *Tensor, transA, table bool) gemmOperands {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	var g gemmOperands
	if transA {
		g.ars, g.aks = 1, m+2
		g.a = make([]float32, k*(m+2)+1)
	} else {
		g.ars, g.aks = k+3, 1
		g.a = make([]float32, m*(k+3)+1)
	}
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			g.a[i*g.ars+p*g.aks] = a.Data[i*k+p]
		}
	}
	if !table {
		g.ldb = n + 5
		g.b = make([]float32, k*g.ldb+1)
		for p := 0; p < k; p++ {
			copy(g.b[p*g.ldb:], b.Data[p*n:(p+1)*n])
		}
		return g
	}
	// Rows land at shuffled slots one float apart from a multiple of n, so
	// consecutive table entries are neither ascending nor equally spaced.
	g.b = make([]float32, (k+1)*(n+1))
	g.offs = make([]int32, k)
	for i, p := range rng.Perm(k) {
		g.offs[p] = int32(i*(n+1) + i%2)
		copy(g.b[g.offs[p]:], b.Data[p*n:(p+1)*n])
	}
	return g
}

// TestGemmMatchesRef checks both Gemm kernels against the scalar
// reference in ref.go, bitwise, over every row remainder (m mod 4),
// every column remainder (n mod 16, n mod 8), both A layouts, pitch and
// offset-table addressing of B, store and accumulate, and k = 0 and 1.
// C sits in a wider buffer whose other cells must come back untouched.
func TestGemmMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 36}
	ks := []int{0, 1, 2, 7, 36}
	var ns []int
	for n := 1; n <= 34; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 47, 48, 49, 286)
	for _, m := range ms {
		for _, k := range ks {
			for _, n := range ns {
				a, b := New(m, max(k, 1)), New(max(k, 1), n)
				fillRand(a, rng)
				fillRand(b, rng)
				if k == 0 {
					a, b = &Tensor{shape: []int{m, 0}}, &Tensor{shape: []int{0, n}}
				}
				want := RefMatMul(a, b)
				for _, transA := range []bool{false, true} {
					for _, table := range []bool{false, true} {
						g := layoutGemm(rng, a, b, transA, table)
						for _, acc := range []bool{false, true} {
							ldc := n + 3
							init := make([]float32, m*ldc)
							for i := range init {
								init[i] = float32(rng.NormFloat64())
							}
							for _, kern := range gemmKernels {
								c := append([]float32(nil), init...)
								kern.fn(c, ldc, g.a, g.ars, g.aks, g.b, g.ldb, g.offs, m, k, n, acc)
								for i := 0; i < m; i++ {
									for j := 0; j < ldc; j++ {
										w := init[i*ldc+j]
										if j < n {
											if acc {
												w += want.Data[i*n+j]
											} else {
												w = want.Data[i*n+j]
											}
										}
										if math.Float32bits(c[i*ldc+j]) != math.Float32bits(w) {
											t.Fatalf("%s m=%d k=%d n=%d transA=%v table=%v acc=%v: C[%d][%d] = %x, want %x",
												kern.name, m, k, n, transA, table, acc, i, j, math.Float32bits(c[i*ldc+j]), math.Float32bits(w))
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestAVX2PanelMatchesScalar drives the vector tiles and the portable
// kernel over the product shapes the conv layers issue — long k, the
// padded-pitch widths of 16×16, 8×8 and 4×4 feature maps, W read
// transposed — and demands bitwise-identical outputs in both overwrite
// and accumulate modes.
func TestAVX2PanelMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Log("AVX2 unavailable; vector path aliases the portable one")
	}
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 3, 4, 5, 9, 16, 27} {
		for _, k := range []int{1, 4, 7, 17, 144, 256} {
			for _, n := range []int{1, 8, 15, 16, 17, 22, 31, 32, 47, 78, 256, 286} {
				a, b := New(m, k), New(k, n)
				fillRand(a, rng)
				fillRand(b, rng)
				for _, transA := range []bool{false, true} {
					g := layoutGemm(rng, a, b, transA, transA)
					for _, acc := range []bool{false, true} {
						want := make([]float32, m*n)
						got := make([]float32, m*n)
						if acc {
							for i := range want {
								v := float32(rng.NormFloat64())
								want[i], got[i] = v, v
							}
						}
						gemmGo(want, n, g.a, g.ars, g.aks, g.b, g.ldb, g.offs, m, k, n, acc)
						gemmAVX2(got, n, g.a, g.ars, g.aks, g.b, g.ldb, g.offs, m, k, n, acc)
						for i := range want {
							if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
								t.Fatalf("m=%d k=%d n=%d transA=%v acc=%v: C[%d] vector %x scalar %x",
									m, k, n, transA, acc, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestAVX2PanelPartialRows exercises row windows that do not start at
// row zero, as produced by GemmParallel's sharding: any window of rows
// computed on its own equals the same rows of the whole product.
func TestAVX2PanelPartialRows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m, k, n = 13, 21, 40
	a, b := New(m, k), New(k, n)
	fillRand(a, rng)
	fillRand(b, rng)
	whole := RefMatMul(a, b)
	for _, win := range [][2]int{{0, 13}, {2, 9}, {5, 6}, {3, 13}} {
		for _, kern := range gemmKernels {
			got := make([]float32, m*n)
			lo, hi := win[0], win[1]
			kern.fn(got[lo*n:], n, a.Data[lo*k:], k, 1, b.Data, n, nil, hi-lo, k, n, false)
			for i := range got {
				want := float32(0)
				if i >= lo*n && i < hi*n {
					want = whole.Data[i]
				}
				if math.Float32bits(want) != math.Float32bits(got[i]) {
					t.Fatalf("%s window %v: C[%d] = %x, want %x", kern.name, win, i, math.Float32bits(got[i]), math.Float32bits(want))
				}
			}
		}
	}
}

// TestGemmRejectsOutOfRange: the exported entry point validates every
// operand extent before an assembly tile can read or write past a slice.
func TestGemmRejectsOutOfRange(t *testing.T) {
	a, b, c := make([]float32, 8), make([]float32, 12), make([]float32, 6)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"short C", func() { Gemm(c[:5], 3, a, 4, 1, b, 3, nil, 2, 4, 3, false) }},
		{"ldc below n", func() { Gemm(c, 2, a, 4, 1, b, 3, nil, 2, 4, 3, false) }},
		{"short A", func() { Gemm(c, 3, a[:7], 4, 1, b, 3, nil, 2, 4, 3, false) }},
		{"short B", func() { Gemm(c, 3, a, 4, 1, b[:11], 3, nil, 2, 4, 3, false) }},
		{"offset past B", func() { Gemm(c, 3, a, 4, 1, b, 0, []int32{0, 3, 6, 10}, 2, 4, 3, false) }},
		{"negative offset", func() { Gemm(c, 3, a, 4, 1, b, 0, []int32{0, 3, -1, 9}, 2, 4, 3, false) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
	// The same call in range must succeed.
	Gemm(c, 3, a, 4, 1, b, 0, []int32{0, 3, 6, 9}, 2, 4, 3, false)
}
