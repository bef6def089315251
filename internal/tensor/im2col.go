package tensor

import "fmt"

// ConvDims describes a 2D convolution geometry. H/W are input spatial
// dims; K is the (square) kernel size; Stride and Pad apply to both axes.
type ConvDims struct {
	InC, H, W   int
	OutC, K     int
	Stride, Pad int
	OutH, OutW  int
}

// NewConvDims computes output spatial dimensions and validates geometry.
func NewConvDims(inC, h, w, outC, k, stride, pad int) ConvDims {
	if stride <= 0 || k <= 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry k=%d stride=%d", k, stride))
	}
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: conv output collapses: in %dx%d k=%d stride=%d pad=%d", h, w, k, stride, pad))
	}
	return ConvDims{InC: inC, H: h, W: w, OutC: outC, K: k, Stride: stride, Pad: pad, OutH: outH, OutW: outW}
}

// Im2Col lowers one image (C,H,W) from x at batch offset into the column
// buffer col of shape (C*K*K, OutH*OutW). Padding cells contribute zeros.
// Stride-1 geometries (every ResNet/VGG 3×3 in this repo) take a fast path
// that bulk-copies the valid span of each output row instead of testing
// bounds per element.
func Im2Col(col []float32, x []float32, d ConvDims) {
	Im2ColLD(col, x, d, d.OutH*d.OutW)
}

// Im2ColLD is Im2Col with an explicit leading dimension: lowered row idx
// starts at col[idx*ld]. A batch-fused caller lowers image i of a group
// into Im2ColLD(colB[i*cols:], x_i, d, G*cols), placing the images side by
// side in one wide (C*K*K, G·OutH·OutW) matrix without a copy.
func Im2ColLD(col []float32, x []float32, d ConvDims, ld int) {
	if d.Stride == 1 {
		im2colStride1(col, x, d, ld)
		return
	}
	cols := d.OutH * d.OutW
	idx := 0
	for c := 0; c < d.InC; c++ {
		plane := x[c*d.H*d.W : (c+1)*d.H*d.W]
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := col[idx*ld : idx*ld+cols]
				idx++
				o := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy*d.Stride - d.Pad + ky
					if iy < 0 || iy >= d.H {
						for ox := 0; ox < d.OutW; ox++ {
							row[o] = 0
							o++
						}
						continue
					}
					base := iy * d.W
					for ox := 0; ox < d.OutW; ox++ {
						ix := ox*d.Stride - d.Pad + kx
						if ix < 0 || ix >= d.W {
							row[o] = 0
						} else {
							row[o] = plane[base+ix]
						}
						o++
					}
				}
			}
		}
	}
}

// im2colStride1 handles stride 1: for each (ky,kx) tap, the input column
// index is ox + kx - Pad, so the in-bounds ox range is a single contiguous
// span copied with copy(); only the padding fringes are written per cell.
func im2colStride1(col []float32, x []float32, d ConvDims, ld int) {
	cols := d.OutH * d.OutW
	idx := 0
	for c := 0; c < d.InC; c++ {
		plane := x[c*d.H*d.W : (c+1)*d.H*d.W]
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := col[idx*ld : idx*ld+cols]
				idx++
				// Valid ox satisfy 0 ≤ ox+kx-Pad < W.
				oxLo := d.Pad - kx
				if oxLo < 0 {
					oxLo = 0
				}
				oxHi := d.W + d.Pad - kx
				if oxHi > d.OutW {
					oxHi = d.OutW
				}
				if oxHi < oxLo {
					oxHi = oxLo
				}
				o := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy - d.Pad + ky
					if iy < 0 || iy >= d.H {
						zero := row[o : o+d.OutW]
						for i := range zero {
							zero[i] = 0
						}
						o += d.OutW
						continue
					}
					base := iy * d.W
					for ox := 0; ox < oxLo; ox++ {
						row[o+ox] = 0
					}
					if oxHi > oxLo {
						copy(row[o+oxLo:o+oxHi], plane[base+oxLo-d.Pad+kx:base+oxHi-d.Pad+kx])
					}
					for ox := oxHi; ox < d.OutW; ox++ {
						row[o+ox] = 0
					}
					o += d.OutW
				}
			}
		}
	}
}

// Im2ColPatch lowers one image (C,H,W) into the patch-major column buffer
// dst of shape (OutH*OutW, C*K*K): row j holds the receptive field of
// output pixel j, laid out in the same (c,ky,kx) order as a filter row of
// the weight matrix. This is the transposed layout of Im2Col, produced
// directly: the (k = pixels, n = C*K*K) vector-side operand of the conv
// weight gradient dW += g · patches, with no transpose.
func Im2ColPatch(dst, x []float32, d ConvDims) {
	if d.K == 3 {
		im2colPatch3(dst, x, d)
		return
	}
	colRows := d.InC * d.K * d.K
	kk := d.K * d.K
	for oy := 0; oy < d.OutH; oy++ {
		for ox := 0; ox < d.OutW; ox++ {
			patch := dst[(oy*d.OutW+ox)*colRows:][:colRows]
			ix0 := ox*d.Stride - d.Pad
			// Valid kx satisfy 0 ≤ ix0+kx < W.
			lo, hi := max(-ix0, 0), min(d.W-ix0, d.K)
			lo = min(lo, d.K) // padding wider than the kernel
			hi = max(hi, lo)
			iy0 := oy*d.Stride - d.Pad
			interior := lo == 0 && hi == d.K && iy0 >= 0 && iy0+d.K <= d.H
			for c := 0; c < d.InC; c++ {
				plane := x[c*d.H*d.W:]
				pp := patch[c*kk:][:kk]
				if interior {
					// Fully in-bounds receptive field: no fringe handling.
					// K is tiny (3 or 5 here), so an inline element loop
					// beats a memmove call per row.
					src := plane[iy0*d.W+ix0:]
					for ky := 0; ky < d.K; ky++ {
						row := pp[ky*d.K:][:d.K]
						srow := src[ky*d.W:]
						for i := range row {
							row[i] = srow[i]
						}
					}
					continue
				}
				for ky := 0; ky < d.K; ky++ {
					iy := iy0 + ky
					row := pp[ky*d.K:][:d.K]
					if iy < 0 || iy >= d.H {
						for i := range row {
							row[i] = 0
						}
						continue
					}
					for i := 0; i < lo; i++ {
						row[i] = 0
					}
					if hi > lo {
						srow := plane[iy*d.W+ix0+lo:]
						for i := lo; i < hi; i++ {
							row[i] = srow[i-lo]
						}
					}
					for i := hi; i < d.K; i++ {
						row[i] = 0
					}
				}
			}
		}
	}
}

// im2colPatch3 is Im2ColPatch specialized for 3×3 kernels (every conv in
// the repo's ResNet/VGG models). Each output row's fully-interior ox span
// is computed once; over that span the copy runs channel-outer with the
// three source-row slices and the destination cursor hoisted out of the
// per-pixel loop, so the inner body is nine unrolled load/store pairs and
// two additions. Only the padding fringe takes the bounds-checked path.
func im2colPatch3(dst, x []float32, d ConvDims) {
	colRows := d.InC * 9
	hw := d.H * d.W
	w := d.W
	st := d.Stride
	// Interior ox satisfy 0 ≤ ox·st−Pad and ox·st−Pad+3 ≤ W.
	oxLo := 0
	if d.Pad > 0 {
		oxLo = (d.Pad + st - 1) / st
	}
	oxHi := 0
	if q := w + d.Pad - 3; q >= 0 {
		oxHi = q/st + 1
	}
	if oxHi > d.OutW {
		oxHi = d.OutW
	}
	if oxHi < oxLo {
		oxHi = oxLo
	}
	// Interior oy satisfy 0 ≤ oy·st−Pad and oy·st−Pad+3 ≤ H.
	oyLo := 0
	if d.Pad > 0 {
		oyLo = (d.Pad + st - 1) / st
	}
	oyHi := 0
	if q := d.H + d.Pad - 3; q >= 0 {
		oyHi = q/st + 1
	}
	if oyHi > d.OutH {
		oyHi = d.OutH
	}
	if oyHi < oyLo {
		oyHi = oyLo
	}
	for oy := 0; oy < d.OutH; oy++ {
		iy0 := oy*st - d.Pad
		base := oy * d.OutW * colRows
		if oy < oyLo || oy >= oyHi {
			// Vertically clipped row: corners take the fully bounds-checked
			// edge path, the x-interior span shares the run copier (which
			// zeroes whole out-of-bounds tap rows).
			for ox := 0; ox < oxLo; ox++ {
				im2colPatch3Edge(dst[base+ox*colRows:][:colRows], x, d, iy0, ox*st-d.Pad)
			}
			for ox := oxHi; ox < d.OutW; ox++ {
				im2colPatch3Edge(dst[base+ox*colRows:][:colRows], x, d, iy0, ox*st-d.Pad)
			}
		}
		if oxHi > oxLo {
			ix0 := oxLo*st - d.Pad
			n := oxHi - oxLo
			for c := 0; c < d.InC; c++ {
				im2colPatch3Run(dst[base+oxLo*colRows+c*9:], x[c*hw:], n, colRows, iy0, ix0, w, st, d.H)
			}
		}
	}
	// Left/right fringe columns over the vertically interior rows run as
	// per-channel vertical strips: the x-clip window is fixed down a
	// column, so the inner copy is straight-line with all three tap rows
	// guaranteed in bounds.
	if oyHi > oyLo {
		for ox := 0; ox < oxLo; ox++ {
			im2colPatch3Strip(dst, x, d, ox, oyLo, oyHi, colRows, hw)
		}
		for ox := oxHi; ox < d.OutW; ox++ {
			im2colPatch3Strip(dst, x, d, ox, oyLo, oyHi, colRows, hw)
		}
	}
}

// im2colPatch3Strip fills all channels of one x-clipped output column for
// the vertically interior rows [oyLo, oyHi).
func im2colPatch3Strip(dst, x []float32, d ConvDims, ox, oyLo, oyHi, colRows, hw int) {
	w, st := d.W, d.Stride
	ix0 := ox*st - d.Pad
	lo, hi := max(-ix0, 0), min(w-ix0, 3)
	lo = min(lo, 3) // padding wider than the kernel
	hi = max(hi, lo)
	// oy outer, channels inner: each output pixel's patch (colRows floats)
	// is written contiguously, and the three input rows a pixel reads stay
	// warm for the next pixel down the column.
	for oy := oyLo; oy < oyHi; oy++ {
		base := (oy*st - d.Pad) * w
		patch := dst[(oy*d.OutW+ox)*colRows:][:colRows]
		po := 0
		for c := 0; c < d.InC; c++ {
			// ix0 may be negative (left fringe); every read index ix0+kx
			// with kx ≥ lo is in bounds.
			src := x[c*hw+base:]
			pp := patch[po : po+9 : po+9]
			po += 9
			pp[0], pp[1], pp[2] = 0, 0, 0
			pp[3], pp[4], pp[5] = 0, 0, 0
			pp[6], pp[7], pp[8] = 0, 0, 0
			for kx := lo; kx < hi; kx++ {
				pp[kx] = src[ix0+kx]
				pp[3+kx] = src[w+ix0+kx]
				pp[6+kx] = src[2*w+ix0+kx]
			}
		}
	}
}

// im2colPatch3Run fills one channel's nine taps for a horizontal run of n
// x-interior output pixels starting at input column ix0, writing patches
// colRows apart starting at dst[0]. Tap rows outside [0,H) are zeroed; the
// all-interior case — almost every pixel — runs the straight-line copy.
func im2colPatch3Run(dst, plane []float32, n, colRows, iy0, ix0, w, st, h int) {
	var r0, r1, r2 []float32
	if iy0 >= 0 && iy0 < h {
		r0 = plane[iy0*w+ix0:]
	}
	if iy := iy0 + 1; iy >= 0 && iy < h {
		r1 = plane[iy*w+ix0:]
	}
	if iy := iy0 + 2; iy >= 0 && iy < h {
		r2 = plane[iy*w+ix0:]
	}
	po, j := 0, 0
	if r0 != nil && r1 != nil && r2 != nil {
		for i := 0; i < n; i++ {
			pp := dst[po : po+9 : po+9]
			pp[0], pp[1], pp[2] = r0[j], r0[j+1], r0[j+2]
			pp[3], pp[4], pp[5] = r1[j], r1[j+1], r1[j+2]
			pp[6], pp[7], pp[8] = r2[j], r2[j+1], r2[j+2]
			po += colRows
			j += st
		}
		return
	}
	// Clipped run: the three per-row branches resolve the same way every
	// iteration, so they predict perfectly.
	for i := 0; i < n; i++ {
		pp := dst[po : po+9 : po+9]
		if r0 != nil {
			pp[0], pp[1], pp[2] = r0[j], r0[j+1], r0[j+2]
		} else {
			pp[0], pp[1], pp[2] = 0, 0, 0
		}
		if r1 != nil {
			pp[3], pp[4], pp[5] = r1[j], r1[j+1], r1[j+2]
		} else {
			pp[3], pp[4], pp[5] = 0, 0, 0
		}
		if r2 != nil {
			pp[6], pp[7], pp[8] = r2[j], r2[j+1], r2[j+2]
		} else {
			pp[6], pp[7], pp[8] = 0, 0, 0
		}
		po += colRows
		j += st
	}
}

// im2colPatch3Edge fills one padding-fringe patch (all channels of one
// output pixel), zeroing out-of-bounds taps.
func im2colPatch3Edge(patch, x []float32, d ConvDims, iy0, ix0 int) {
	hw := d.H * d.W
	w := d.W
	lo, hi := max(-ix0, 0), min(w-ix0, 3)
	lo = min(lo, 3) // padding wider than the kernel
	hi = max(hi, lo)
	for c := 0; c < d.InC; c++ {
		plane := x[c*hw:]
		pp := patch[c*9 : c*9+9]
		for ky := 0; ky < 3; ky++ {
			iy := iy0 + ky
			row := pp[ky*3 : ky*3+3]
			if iy < 0 || iy >= d.H {
				row[0], row[1], row[2] = 0, 0, 0
				continue
			}
			for i := 0; i < lo; i++ {
				row[i] = 0
			}
			if hi > lo {
				srow := plane[iy*w+ix0+lo:]
				for i := lo; i < hi; i++ {
					row[i] = srow[i-lo]
				}
			}
			for i := hi; i < 3; i++ {
				row[i] = 0
			}
		}
	}
}

// Col2Im scatters the column-gradient buffer col (C*K*K, OutH*OutW) back
// into the image gradient dx (C,H,W), accumulating overlapping windows.
// dx must be zeroed by the caller if accumulation from scratch is desired.
func Col2Im(dx []float32, col []float32, d ConvDims) {
	Col2ImLD(dx, col, d, d.OutH*d.OutW)
}

// Col2ImLD is Col2Im with an explicit leading dimension: row idx of the
// column-gradient matrix starts at col[idx*ld]. This lets a batch-fused
// backward pass scatter one image's slice out of a wide (C*K*K, B·OutH·OutW)
// gradient matrix without copying it into a contiguous per-image buffer.
// The accumulation order over (c,ky,kx) then (oy,ox) is identical to
// Col2Im, so overlapping-window sums round identically.
func Col2ImLD(dx []float32, col []float32, d ConvDims, ld int) {
	if d.Stride == 1 {
		col2imStride1(dx, col, d, ld)
		return
	}
	cols := d.OutH * d.OutW
	idx := 0
	for c := 0; c < d.InC; c++ {
		plane := dx[c*d.H*d.W : (c+1)*d.H*d.W]
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := col[idx*ld : idx*ld+cols]
				idx++
				o := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy*d.Stride - d.Pad + ky
					if iy < 0 || iy >= d.H {
						o += d.OutW
						continue
					}
					base := iy * d.W
					for ox := 0; ox < d.OutW; ox++ {
						ix := ox*d.Stride - d.Pad + kx
						if ix >= 0 && ix < d.W {
							plane[base+ix] += row[o]
						}
						o++
					}
				}
			}
		}
	}
}

// col2imStride1 is the stride-1 scatter: the in-bounds ox span is computed
// once per output row, so the accumulate loop runs branch-free.
func col2imStride1(dx []float32, col []float32, d ConvDims, ld int) {
	cols := d.OutH * d.OutW
	idx := 0
	for c := 0; c < d.InC; c++ {
		plane := dx[c*d.H*d.W : (c+1)*d.H*d.W]
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := col[idx*ld : idx*ld+cols]
				idx++
				oxLo := d.Pad - kx
				if oxLo < 0 {
					oxLo = 0
				}
				oxHi := d.W + d.Pad - kx
				if oxHi > d.OutW {
					oxHi = d.OutW
				}
				if oxHi < oxLo {
					oxHi = oxLo
				}
				shift := kx - d.Pad
				o := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy - d.Pad + ky
					if iy < 0 || iy >= d.H {
						o += d.OutW
						continue
					}
					dst := plane[iy*d.W+oxLo+shift : iy*d.W+oxHi+shift]
					src := row[o+oxLo : o+oxHi]
					if len(src) >= 16 {
						// Each dst element receives exactly one add per tap,
						// so vectorizing the span preserves every per-element
						// accumulation chain bit for bit.
						VecAdd(dst, src)
					} else {
						for i, v := range src {
							dst[i] += v
						}
					}
					o += d.OutW
				}
			}
		}
	}
}
