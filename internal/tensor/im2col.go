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
	if d.Stride == 1 {
		im2colStride1(col, x, d)
		return
	}
	cols := d.OutH * d.OutW
	idx := 0
	for c := 0; c < d.InC; c++ {
		plane := x[c*d.H*d.W : (c+1)*d.H*d.W]
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := col[idx*cols : (idx+1)*cols]
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
func im2colStride1(col []float32, x []float32, d ConvDims) {
	cols := d.OutH * d.OutW
	idx := 0
	for c := 0; c < d.InC; c++ {
		plane := x[c*d.H*d.W : (c+1)*d.H*d.W]
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := col[idx*cols : (idx+1)*cols]
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

// TransposeViews writes the patch-major lowering of a convolution — the
// transpose of its row-major one — without building the latter:
//
//	dst[j·rows+r] = src[offs[r]+j]    r < rows = len(offs), j < span
//
// View r is the span contiguous floats of src at offs[r]: lowered row
// (c,ky,kx) of a stride-1 convolution inside the zero-bordered image
// (nn.Conv2D.taps, span at the padded pitch), or row r of an Im2Col
// matrix. dst row j is then the receptive field of position j in filter
// order: the (k = span, n = rows) vector-side operand of the weight
// gradient dW += g · patches. On AVX2 it moves 8×8 blocks through the
// registers (transposeViews8); transposeViewsGo is the portable body and
// the tests' oracle.
func TransposeViews(dst, src []float32, offs []int32, span int) {
	rows := len(offs)
	if rows == 0 || span <= 0 {
		return
	}
	if len(dst) < span*rows {
		panic(fmt.Sprintf("tensor: TransposeViews dst of %d short of %d×%d", len(dst), span, rows))
	}
	for _, o := range offs {
		if o < 0 || int(o)+span > len(src) {
			panic(fmt.Sprintf("tensor: TransposeViews view at %d of span %d outside src of %d", o, span, len(src)))
		}
	}
	if useAVX2 && rows >= 8 && span >= 8 {
		transposeViews8(&dst[0], &src[0], &offs[0], rows, span)
		return
	}
	transposeViewsGo(dst, src, offs, span)
}

func transposeViewsGo(dst, src []float32, offs []int32, span int) {
	rows := len(offs)
	for r, o := range offs {
		for j, v := range src[o:][:span] {
			dst[j*rows+r] = v
		}
	}
}

// Col2Im scatters the column-gradient buffer col (C*K*K, OutH*OutW) back
// into the image gradient dx (C,H,W), accumulating overlapping windows.
// dx must be zeroed by the caller if accumulation from scratch is desired.
func Col2Im(dx []float32, col []float32, d ConvDims) {
	if d.Stride == 1 {
		col2imStride1(dx, col, d)
		return
	}
	cols := d.OutH * d.OutW
	idx := 0
	for c := 0; c < d.InC; c++ {
		plane := dx[c*d.H*d.W : (c+1)*d.H*d.W]
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := col[idx*cols : (idx+1)*cols]
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
func col2imStride1(dx []float32, col []float32, d ConvDims) {
	cols := d.OutH * d.OutW
	idx := 0
	for c := 0; c < d.InC; c++ {
		plane := dx[c*d.H*d.W : (c+1)*d.H*d.W]
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := col[idx*cols : (idx+1)*cols]
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
