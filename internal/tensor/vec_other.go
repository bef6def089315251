//go:build !amd64

package tensor

// Non-amd64 builds run the scalar loops in vec.go unconditionally:
// useAVX2 is the constant false, so these stubs are unreachable and
// exist only to satisfy the type checker.

func vecAxpyAsm(y, x *float32, n int, a float32)         { panic("tensor: no vector kernel") }
func vecScaleAsm(x *float32, n int, a float32)           { panic("tensor: no vector kernel") }
func vecAddAsm(dst, src *float32, n int)                 { panic("tensor: no vector kernel") }
func vecSubAsm(dst, src *float32, n int)                 { panic("tensor: no vector kernel") }
func vecBiasAddAsm(dst *float32, n int, b float32)       { panic("tensor: no vector kernel") }
func vecCopyBiasAsm(dst, src *float32, n int, b float32) { panic("tensor: no vector kernel") }
func vecReLUAsm(out, x *float32, n int)                  { panic("tensor: no vector kernel") }
func vecReLUBwdAsm(dx, dout, x *float32, n int)          { panic("tensor: no vector kernel") }
func vecSGDAsm(w, gv *float32, n int, lr, wd float32)    { panic("tensor: no vector kernel") }
func vecSGDMomAsm(w, v, gv *float32, n int, lr, wd, mu float32) {
	panic("tensor: no vector kernel")
}
func vecAddDiffAsm(dst, a, b *float32, n int)             { panic("tensor: no vector kernel") }
func vecAxpyDiffAsm(dst, a, b *float32, n int, m float32) { panic("tensor: no vector kernel") }
func vecAccumScaledAsm(acc *float64, v *float32, n int, w float64) {
	panic("tensor: no vector kernel")
}
func vecAccumScaledLEAsm(acc *float64, src *byte, n int, w float64) {
	panic("tensor: no vector kernel")
}
func vecDivF64ToF32Asm(dst *float32, src *float64, n int, d float64, clr int) {
	panic("tensor: no vector kernel")
}
func vecF32ToLEAsm(dst *byte, src *float32, n int) { panic("tensor: no vector kernel") }
func vecLEToF32Asm(dst *float32, src *byte, n int) { panic("tensor: no vector kernel") }
func vecBNTrainAsm(out, x *float32, n int, mean, inv, gv, b float64) {
	panic("tensor: no vector kernel")
}
func vecBNXhatAsm(xhat, x *float32, n int, mean, inv float64) { panic("tensor: no vector kernel") }
func vecBNEvalAsm(out, x *float32, n int, mean, inv, gv, b float64) {
	panic("tensor: no vector kernel")
}
func vecBNBwdAsm(dx, dout, xhat *float32, n int, scale, cnt, dbeta, dgamma float64) {
	panic("tensor: no vector kernel")
}
func copyRowsAsm(dst *float32, dpitch int, src *float32, spitch, rows, w int) {
	panic("tensor: no vector kernel")
}
