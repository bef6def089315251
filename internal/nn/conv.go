package nn

import (
	"fmt"
	"math/rand"

	"spatl/internal/tensor"
)

// Conv2D is a 2D convolution with square kernels, shared stride/padding on
// both axes and optional bias. Every product runs on tensor.Gemm with the
// operands where they already lie; nothing lowered or packed is kept
// between Forward and Backward (backward recomputes what it needs from the
// cached input, trading FLOPs for memory). DESIGN §8.6 has the two
// routes — implicit GEMM for stride 1, row-major lowering for strided
// geometries. Nothing derived from the weights is cached either, so a
// write to the weights is seen by the next pass whoever makes it.
type Conv2D struct {
	name                      string
	InC, OutC, K, Stride, Pad int
	weight, bias              *Param
	useBias                   bool
	dims                      tensor.ConvDims
	haveDims                  bool
	x                         *tensor.Tensor // the input, kept in training mode for Backward
	out, dx                   *tensor.Tensor // output and input gradient (tensor.Reuse)

	// taps[r], r = (ch·K+ky)·K+kx, is where lowered row r starts in the
	// buffer its views are read from: ch·Hp·Wp + ky·Wp + kx in the
	// zero-bordered (InC, Hp, Wp) copy of an image for stride 1, r·cols in
	// the Im2Col matrix otherwise; rebuilt with dims.
	taps []int32

	// The bodies of the layer's two Parallel regions, bound once, and their
	// per-call arguments: a region that runs on its caller (every core
	// busy, tensor.Parallel) then allocates nothing.
	fwd, bwd func(lo, hi int)
	dout     *tensor.Tensor
	shards   []convShard
}

// convShard is the dW (scratch, held from the region to the merge) and db
// partial sums of shardImages consecutive images.
type convShard struct {
	dw []float32
	db []float64
}

// NewConv2D constructs a convolution layer with He-normal initialized
// filters. Bias is included when useBias is true (models that follow the
// conv with BatchNorm typically disable it).
func NewConv2D(name string, inC, outC, k, stride, pad int, useBias bool, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		name: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		useBias: useBias,
		taps:    make([]int32, 0, inC*k*k),
	}
	c.weight = newParam("weight", outC, inC*k*k)
	c.weight.W.KaimingNormal(rng, inC*k*k)
	if useBias {
		c.bias = newParam("bias", outC)
	}
	c.fwd, c.bwd = c.forwardRange, c.backwardShards
	return c
}

// padded returns the zero-bordered image geometry of a stride-1
// convolution: its height and width, and flat = (OutH−1)·Wp+OutW, the
// span of output positions laid out at the padded pitch Wp (output
// (oy,ox) at oy·Wp+ox; the Wp−OutW columns between rows are junk).
// Buffers at that pitch give each channel OutH·Wp floats, so all their
// rows lie one pitch apart.
func (c *Conv2D) padded() (hp, wp, flat int) {
	d := c.dims
	hp, wp = d.H+2*c.Pad, d.W+2*c.Pad
	return hp, wp, (d.OutH-1)*wp + d.OutW
}

// sizes returns the lowered-matrix dimensions (cols output positions,
// colRows = InC·K² taps) and the per-image strides of x and out.
func (c *Conv2D) sizes() (cols, colRows, inStride, outStride int) {
	d := c.dims
	cols = d.OutH * d.OutW
	return cols, c.InC * c.K * c.K, c.InC * d.H * d.W, c.OutC * cols
}

// Forward implements Layer. Input shape (N, InC, H, W).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s expects (N,%d,H,W), got %v", c.name, c.InC, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	if !c.haveDims || c.dims.H != h || c.dims.W != w {
		c.dims = tensor.NewConvDims(c.InC, h, w, c.OutC, c.K, c.Stride, c.Pad)
		c.haveDims = true
		hp, wp, _ := c.padded()
		c.taps = c.taps[:0]
		for ch := 0; ch < c.InC; ch++ {
			for ky := 0; ky < c.K; ky++ {
				for kx := 0; kx < c.K; kx++ {
					tap := ch*hp*wp + ky*wp + kx
					if c.Stride != 1 {
						tap = len(c.taps) * c.dims.OutH * c.dims.OutW
					}
					c.taps = append(c.taps, int32(tap))
				}
			}
		}
	}
	c.out = tensor.Reuse(c.out, n, c.OutC, c.dims.OutH, c.dims.OutW)
	c.x = x
	tensor.Parallel(n, c.fwd)
	if !train {
		c.x = nil
	}
	return c.out
}

// forwardRange is the forward of images [lo,hi) on the layer's route.
func (c *Conv2D) forwardRange(lo, hi int) {
	if c.Stride == 1 {
		c.forwardImplicit(c.out, c.x, lo, hi)
		return
	}
	c.forwardLowered(c.out, c.x, lo, hi)
}

// forwardImplicit is the dense stride-1 forward of images [lo,hi) as an
// implicit GEMM: the image is copied once into a zero-bordered scratch,
// where lowered row (ch,ky,kx) is simply the contiguous view starting at
// taps[row], so out = W · views runs through Gemm's offset table over the
// flat padded-pitch span and the column matrix is never built. Each
// output is the same ascending-(ch,ky,kx) chain the lowered product
// forms; the junk columns are computed and not copied out.
func (c *Conv2D) forwardImplicit(out, x *tensor.Tensor, lo, hi int) {
	d := c.dims
	hp, wp, flat := c.padded()
	_, colRows, inStride, outStride := c.sizes()
	xp := tensor.GetScratch(c.InC * hp * wp)
	clear(xp) // the border; every image overwrites the whole interior
	cB := tensor.GetScratch(c.OutC * d.OutH * wp)
	for i := lo; i < hi; i++ {
		c.padInto(xp, x.Data[i*inStride:(i+1)*inStride])
		tensor.Gemm(cB, d.OutH*wp, c.weight.W.Data, colRows, 1, xp, 0, c.taps, c.OutC, colRows, flat, false)
		oi := out.Data[i*outStride : (i+1)*outStride]
		if !c.useBias {
			tensor.CopyRows(oi, d.OutW, cB, wp, c.OutC*d.OutH, d.OutW)
			continue
		}
		for r := 0; r < c.OutC*d.OutH; r++ {
			tensor.VecCopyBias(oi[r*d.OutW:][:d.OutW], cB[r*wp:][:d.OutW], c.bias.W.Data[r/d.OutH])
		}
	}
	tensor.PutScratch(cB)
	tensor.PutScratch(xp)
}

// padInto copies one (InC,H,W) image into the interior of the
// zero-bordered (InC,Hp,Wp) buffer xp.
func (c *Conv2D) padInto(xp, xi []float32) {
	d := c.dims
	hp, wp, _ := c.padded()
	for ch := 0; ch < c.InC; ch++ {
		tensor.CopyRows(xp[(ch*hp+c.Pad)*wp+c.Pad:], wp, xi[ch*d.H*d.W:], d.W, d.H, d.W)
	}
}

// forwardLowered is the dense forward of images [lo,hi) for strided
// geometries, whose lowered rows are not contiguous views: one row-major
// im2col per image feeding the same tile, written straight into out.
func (c *Conv2D) forwardLowered(out, x *tensor.Tensor, lo, hi int) {
	d := c.dims
	cols, colRows, inStride, outStride := c.sizes()
	col := tensor.GetScratch(colRows * cols)
	for i := lo; i < hi; i++ {
		tensor.Im2Col(col, x.Data[i*inStride:(i+1)*inStride], d)
		oi := out.Data[i*outStride : (i+1)*outStride]
		tensor.Gemm(oi, cols, c.weight.W.Data, colRows, 1, col, cols, nil, c.OutC, colRows, cols, false)
		c.addBias(oi, cols)
	}
	tensor.PutScratch(col)
}

// addBias adds the per-channel bias to one image's (OutC, cols) activation
// block; a no-op for bias-free layers.
func (c *Conv2D) addBias(oi []float32, cols int) {
	if !c.useBias {
		return
	}
	for oc := 0; oc < c.OutC; oc++ {
		tensor.VecBiasAdd(oi[oc*cols:(oc+1)*cols], c.bias.W.Data[oc])
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	x := c.x
	if x == nil {
		panic("nn: Conv2D.Backward before training-mode Forward")
	}
	n, d := x.Dim(0), c.dims
	c.dx = tensor.Reuse(c.dx, n, c.InC, d.H, d.W)
	c.dout = dout

	// Shard the batch shardImages at a time; each shard accumulates its
	// own dW (and db), then shards are summed in ascending order. The
	// reduction geometry is a function of the batch alone, never of the
	// core count, so gradients are bitwise identical at any GOMAXPROCS.
	ns := (n + shardImages - 1) / shardImages
	if cap(c.shards) < ns {
		c.shards = make([]convShard, ns)
	}
	c.shards = c.shards[:ns]
	tensor.Parallel(ns, c.bwd)
	c.dout = nil
	for i := range c.shards {
		sh := &c.shards[i]
		tensor.VecAdd(c.weight.G.Data, sh.dw)
		tensor.PutScratch(sh.dw)
		sh.dw = nil
		if c.useBias {
			for oc, v := range sh.db {
				c.bias.G.Data[oc] += float32(v)
			}
		}
	}
	return c.dx
}

// backwardShards is the backward of shards [slo,shi): per image,
// dW += g · patches — each dot product runs over the image's positions in
// ascending order and is then added once, so dW's rounding is per image
// whatever the route — then dx on the layer's route.
//
// patches, the (k = positions, n = colRows) vector operand, is the
// transpose of the lowered rows, and on every route the lowered rows
// already exist as views (tensor.TransposeViews over c.taps). Stride 1:
// the views are the taps of the zero-bordered image, so positions run at
// the padded pitch and g is taken from gp, the layout backward-dx reads
// anyway. Every junk position multiplies g = 0 there: the chain, started
// from +0, gains a ±0 and stays what it was — the argument backwardImplicit
// makes for dx. Strided: the views are the rows of the Im2Col matrix.
func (c *Conv2D) backwardShards(slo, shi int) {
	d, x, dout := c.dims, c.x, c.dout
	cols, colRows, inStride, outStride := c.sizes()
	hp, wp, flat := c.padded()
	span, gld := cols, cols
	var lowered, gp, dxp []float32 // lowered: what the views point into
	if c.Stride != 1 {
		lowered = tensor.GetScratch(colRows * cols)
	} else {
		span, gld = flat, d.OutH*wp
		lowered = tensor.GetScratch(c.InC * hp * wp)
		clear(lowered) // the border; every image overwrites the whole interior
		gp = tensor.GetScratch(c.OutC * gld)
		clear(gp) // the junk columns; every image overwrites all the others
		dxp = tensor.GetScratch(c.InC * hp * wp)
	}
	patch := tensor.GetScratch(span * colRows)
	for s := slo; s < shi; s++ {
		sh := &c.shards[s]
		lo, hi := s*shardImages, min((s+1)*shardImages, x.Dim(0))
		sh.dw = tensor.GetScratch(c.OutC * colRows)
		clear(sh.dw)
		if c.useBias {
			if cap(sh.db) < c.OutC {
				sh.db = make([]float64, c.OutC)
			}
			sh.db = sh.db[:c.OutC]
			clear(sh.db)
		}
		for i := lo; i < hi; i++ {
			xi, g := x.Data[i*inStride:(i+1)*inStride], dout.Data[i*outStride:(i+1)*outStride]
			if c.useBias {
				for oc := 0; oc < c.OutC; oc++ {
					var sum float64
					for _, v := range g[oc*cols : (oc+1)*cols] {
						sum += float64(v)
					}
					sh.db[oc] += sum
				}
			}
			if c.Stride == 1 {
				c.padInto(lowered, xi)
				tensor.CopyRows(gp, wp, g, d.OutW, c.OutC*d.OutH, d.OutW)
				g = gp
			} else {
				tensor.Im2Col(lowered, xi, d)
			}
			tensor.TransposeViews(patch, lowered, c.taps, span)
			tensor.Gemm(sh.dw, colRows, g, gld, 1, patch, colRows, nil, c.OutC, span, colRows, true)
			if c.Stride == 1 {
				c.backwardImplicit(c.dx.Data[i*inStride:(i+1)*inStride], gp, dxp)
			}
		}
		if c.Stride != 1 {
			c.backwardLowered(c.dx, dout, lo, hi)
		}
	}
	tensor.PutScratch(patch)
	tensor.PutScratch(dxp)
	tensor.PutScratch(gp)
	tensor.PutScratch(lowered)
}

// backwardImplicit forms one image's dx for a dense stride-1 convolution
// without building dcol = Wᵀ·g or scattering it. gp is g laid out at the
// padded pitch with zero junk columns; for tap (ky,kx), rows
// (ch,ky,kx) of dcol for all ch are one Gemm with W read transposed
// through its strides (A[ch][oc] = W[oc][(ch,ky,kx)]), and col2im of
// those rows is a plain add of the row into the zero-bordered dx plane ch
// at offset ky·Wp+kx — the tile's accumulate epilogue, which forms each
// dot product over ascending oc first and adds it once, as col2im adds a
// finished dcol element. Taps run in ascending (ky,kx), so every dx
// element receives its contributions in the ascending (ch,ky,kx) order of
// the lowered scatter. A junk column's dot product is a sum of ±0 started
// from +0, which is +0, and dx is a running sum started from +0, which is
// never −0; adding +0 to it is a bitwise no-op, so the junk columns (which
// land on real cells of the next row) change nothing. Cells in the border
// collect the taps the lowered scatter skips and are not copied out.
func (c *Conv2D) backwardImplicit(dxi, gp, dxp []float32) {
	d := c.dims
	hp, wp, flat := c.padded()
	kk, colRows := c.K*c.K, c.InC*c.K*c.K
	clear(dxp)
	for t := 0; t < kk; t++ {
		tensor.Gemm(dxp[(t/c.K)*wp+t%c.K:], hp*wp, c.weight.W.Data[t:], kk, colRows, gp, d.OutH*wp, nil, c.InC, c.OutC, flat, true)
	}
	for ch := 0; ch < c.InC; ch++ {
		tensor.CopyRows(dxi[ch*d.H*d.W:], d.W, dxp[(ch*hp+c.Pad)*wp+c.Pad:], wp, d.H, d.W)
	}
}

// backwardLowered forms dx of images [lo,hi) for dense strided
// geometries: dcol = Wᵀ·g with W read transposed through its strides,
// then the col2im scatter.
func (c *Conv2D) backwardLowered(dx, dout *tensor.Tensor, lo, hi int) {
	d := c.dims
	cols, colRows, inStride, outStride := c.sizes()
	dcol := tensor.GetScratch(colRows * cols)
	for i := lo; i < hi; i++ {
		tensor.Gemm(dcol, cols, c.weight.W.Data, 1, colRows, dout.Data[i*outStride:(i+1)*outStride], cols, nil, colRows, c.OutC, cols, false)
		dxi := dx.Data[i*inStride : (i+1)*inStride]
		clear(dxi)
		tensor.Col2Im(dxi, dcol, d)
	}
	tensor.PutScratch(dcol)
}

// SetChannels gives the layer inC input and outC output channels. Up to
// the widths it was built with, its weight, gradient, bias and tap table
// are re-sliced within their arrays, so nothing is allocated: this is how
// one layer takes one pruned width after another (prune's extraction
// workspace). The weights' contents are the caller's to overwrite, and an
// optimizer built over the old shapes does not follow.
func (c *Conv2D) SetChannels(inC, outC int) {
	if inC == c.InC && outC == c.OutC {
		return
	}
	c.InC, c.OutC = inC, outC
	c.weight.resize(outC, inC*c.K*c.K)
	if c.useBias {
		c.bias.resize(outC)
	}
	c.haveDims = false // the taps follow InC; the next Forward rebuilds them
}

func (c *Conv2D) release() {
	tensor.Recycle(c.out)
	tensor.Recycle(c.dx)
	c.x, c.dout = nil, nil
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.useBias {
		return []*Param{c.weight, c.bias}
	}
	return []*Param{c.weight}
}

// FLOPs implements Layer: 2·K²·InC·OutC·OutH·OutW per instance (multiply
// and add), plus bias adds.
func (c *Conv2D) FLOPs() int64 {
	if !c.haveDims {
		return 0
	}
	d := c.dims
	f := int64(2) * int64(c.K*c.K*c.InC) * int64(c.OutC) * int64(d.OutH*d.OutW)
	if c.useBias {
		f += int64(c.OutC) * int64(d.OutH*d.OutW)
	}
	return f
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Weight exposes the filter parameter (shape OutC × InC·K·K); used by the
// pruning subsystem to rank filters.
func (c *Conv2D) Weight() *Param { return c.weight }

// shardImages is how many consecutive images of a batch accumulate their
// dW/db contributions into one shard buffer in Conv2D.Backward. A
// constant, so where the per-shard sums are cut — and hence their
// rounding — depends on the batch size only.
const shardImages = 4
