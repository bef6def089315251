//go:build !amd64

package tensor

// Non-amd64 builds have no vector tile; the portable kernel runs
// everywhere.
const useAVX2 = false

func gemmAVX2(c []float32, ldc int, a []float32, ars, aks int, b []float32, ldb int, offs []int32, m, k, n int, acc bool) {
	gemmGo(c, ldc, a, ars, aks, b, ldb, offs, m, k, n, acc)
}

func transposeViews8(dst, src *float32, offs *int32, rows, span int) {
	panic("tensor: no vector kernel")
}
