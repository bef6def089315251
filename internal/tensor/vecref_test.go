package tensor

// RefVec* kernels: the scalar ground truths the vec.go elementwise
// kernels are verified against (vec_test.go). Each is the plain Go loop
// the AVX2 body reproduces lane-for-lane; equivalence tests demand exact
// bit equality, including NaN, signed-zero and denormal inputs.

// RefVecAxpy computes y += a*x.
func RefVecAxpy(y, x []float32, a float32) {
	for i, v := range x[:len(y)] {
		y[i] += a * v
	}
}

// RefVecScale computes x *= a.
func RefVecScale(x []float32, a float32) {
	for i := range x {
		x[i] *= a
	}
}

// RefVecAdd computes dst += src.
func RefVecAdd(dst, src []float32) {
	for i, v := range src[:len(dst)] {
		dst[i] += v
	}
}

// RefVecSub computes dst -= src.
func RefVecSub(dst, src []float32) {
	for i, v := range src[:len(dst)] {
		dst[i] -= v
	}
}

// RefVecBiasAdd computes dst += b.
func RefVecBiasAdd(dst []float32, b float32) {
	for i := range dst {
		dst[i] += b
	}
}

// RefVecCopyBias computes dst = src + b.
func RefVecCopyBias(dst, src []float32, b float32) {
	for i, v := range src[:len(dst)] {
		dst[i] = v + b
	}
}

// RefVecReLU computes out[i] = x[i] if x[i] > 0 else 0.
func RefVecReLU(out, x []float32) {
	for i, v := range x[:len(out)] {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// RefVecReLUBwd computes dx[i] = dout[i] if x[i] > 0 else 0.
func RefVecReLUBwd(dx, dout, x []float32) {
	for i, v := range dout[:len(dx)] {
		if x[i] > 0 {
			dx[i] = v
		} else {
			dx[i] = 0
		}
	}
}

// RefVecSGDStep computes w -= lr*(g + wd*w).
func RefVecSGDStep(w, g []float32, lr, wd float32) {
	for i, gv := range g[:len(w)] {
		w[i] -= lr * (gv + wd*w[i])
	}
}

// RefVecSGDMomStep computes gj = g + wd*w; v = mu*v + gj; w -= lr*v.
func RefVecSGDMomStep(w, v, g []float32, lr, wd, mu float32) {
	for i, gv := range g[:len(w)] {
		gj := gv + wd*w[i]
		v[i] = mu*v[i] + gj
		w[i] -= lr * v[i]
	}
}

// RefVecAddDiff computes dst += a - b.
func RefVecAddDiff(dst, a, b []float32) {
	for i := range dst {
		dst[i] += a[i] - b[i]
	}
}

// RefVecAxpyDiff computes dst += m*(a - b).
func RefVecAxpyDiff(dst, a, b []float32, m float32) {
	for i := range dst {
		dst[i] += m * (a[i] - b[i])
	}
}

// RefVecAccumScaled computes acc[i] += w*float64(v[i]).
func RefVecAccumScaled(acc []float64, v []float32, w float64) {
	for i, x := range v[:len(acc)] {
		acc[i] += w * float64(x)
	}
}

// RefVecDivF64ToF32 computes dst[i] = float32(src[i] / d).
func RefVecDivF64ToF32(dst []float32, src []float64, d float64) {
	for i, x := range src[:len(dst)] {
		dst[i] = float32(x / d)
	}
}

// RefVecBNTrain computes the training BatchNorm normalize+affine strip
// and the normalized input its Backward reads.
func RefVecBNTrain(out, xhat, x []float32, mean, inv, g, b float64) {
	for i, v := range x[:len(out)] {
		xh := (float64(v) - mean) * inv
		xhat[i] = float32(xh)
		out[i] = float32(g*xh + b)
	}
}

// RefVecBNEval computes the eval BatchNorm transform strip.
func RefVecBNEval(out, x []float32, mean, inv, g, b float64) {
	for i, v := range x[:len(out)] {
		out[i] = float32(g*(float64(v)-mean)*inv + b)
	}
}

// RefVecBNBwd computes the BatchNorm input-gradient strip.
func RefVecBNBwd(dx, dout, xhat []float32, scale, cnt, dbeta, dgamma float64) {
	for i, g := range dout[:len(dx)] {
		dx[i] = float32(scale * (cnt*float64(g) - dbeta - float64(xhat[i])*dgamma))
	}
}
