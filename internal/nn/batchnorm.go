package nn

import (
	"fmt"
	"math"

	"spatl/internal/tensor"
)

// BatchNorm2D normalizes each channel of an (N,C,H,W) batch to zero mean
// and unit variance using batch statistics during training and running
// statistics during evaluation, followed by a learned affine transform.
type BatchNorm2D struct {
	name     string
	C        int
	Momentum float64
	Eps      float64
	gamma    *Param
	beta     *Param

	// Running statistics, shipped with the model but not trained by SGD.
	RunMean []float32
	RunVar  []float32

	// What Backward reads (training mode only): the input and the batch
	// statistics. The normalized input is recomputed from them per
	// channel group (tensor.VecBNXhat), bitwise what the forward formed.
	x      *tensor.Tensor
	mean   []float64
	invStd []float64

	out, dx *tensor.Tensor // output and input gradient (tensor.Reuse)

	// The bodies of the layer's Parallel regions, bound once, and their
	// per-call arguments: a region that runs on its caller (every core
	// busy, tensor.Parallel) then allocates nothing.
	fwd, bwd func(clo, chi int)
	in, dout *tensor.Tensor
	train    bool

	lastPlane int // H*W at the most recent Forward, for FLOPs accounting
}

// NewBatchNorm2D constructs a batch-norm layer for C channels with
// gamma=1, beta=0, running stats at (0,1).
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{name: name, C: c, Momentum: 0.1, Eps: 1e-5}
	bn.gamma = newParam("gamma", c)
	bn.gamma.W.Fill(1)
	bn.beta = newParam("beta", c)
	bn.RunMean = make([]float32, c)
	bn.RunVar = make([]float32, c)
	for i := range bn.RunVar {
		bn.RunVar[i] = 1
	}
	bn.fwd, bn.bwd = bn.forwardChannels, bn.backwardChannels
	return bn
}

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != bn.C {
		panic(fmt.Sprintf("nn: %s expects (N,%d,H,W), got %v", bn.name, bn.C, x.Shape()))
	}
	bn.lastPlane = x.Dim(2) * x.Dim(3)
	bn.out = tensor.Reuse(bn.out, x.Shape()...)
	bn.in, bn.train = x, train
	bn.x = nil
	if train {
		bn.x = x
		// The statistics are reused across steps (steady-state training
		// allocates nothing here).
		if cap(bn.mean) < bn.C {
			bn.mean = make([]float64, bn.C)
			bn.invStd = make([]float64, bn.C)
		}
		bn.mean = bn.mean[:bn.C]
		bn.invStd = bn.invStd[:bn.C]
	}
	tensor.Parallel(bn.C, bn.fwd)
	bn.in = nil
	return bn.out
}

// bnLanes is how many channels the statistics loops advance abreast. Each
// channel's sum is one float64 chain over ascending (image, position), one
// add per element at the adder's latency; four independent chains fill
// that latency. The chains do not interact, so every channel sums the
// same values in the same order as a loop over it alone would.
const bnLanes = 4

// bnGroup returns where the planes of the bnLanes channels from c on start
// inside an image; a group cut short at chi repeats its last channel, whose
// repeated sums are computed and dropped.
func bnGroup(c, chi, plane int) (o [bnLanes]int) {
	for k := range o {
		o[k] = min(c+k, chi-1) * plane
	}
	return o
}

// bnSums returns, per lane, Σ (v−m)² when sq is set and Σ v otherwise,
// over the planes at o[k] of n images stride floats apart.
func bnSums(v []float32, o [bnLanes]int, m [bnLanes]float64, sq bool, n, stride, plane int) [bnLanes]float64 {
	var s0, s1, s2, s3 float64
	for b := 0; b < n*stride; b += stride {
		p0, p1, p2, p3 := v[b+o[0]:][:plane], v[b+o[1]:][:plane], v[b+o[2]:][:plane], v[b+o[3]:][:plane]
		if !sq {
			for j := range p0 {
				s0 += float64(p0[j])
				s1 += float64(p1[j])
				s2 += float64(p2[j])
				s3 += float64(p3[j])
			}
			continue
		}
		for j := range p0 {
			d0, d1, d2, d3 := float64(p0[j])-m[0], float64(p1[j])-m[1], float64(p2[j])-m[2], float64(p3[j])-m[3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
	}
	return [bnLanes]float64{s0, s1, s2, s3}
}

// bnGradSums returns, per lane, dγ = Σ g·xhat and dβ = Σ g over the same
// planes of g, and of xhat at oh[k] in blocks hstride floats apart.
func bnGradSums(g, xhat []float32, o, oh [bnLanes]int, n, stride, hstride, plane int) (dgamma, dbeta [bnLanes]float64) {
	var g0, g1, g2, g3, b0, b1, b2, b3 float64
	for i := 0; i < n; i++ {
		b, bh := i*stride, i*hstride
		p0, p1, p2, p3 := g[b+o[0]:][:plane], g[b+o[1]:][:plane], g[b+o[2]:][:plane], g[b+o[3]:][:plane]
		h0, h1, h2, h3 := xhat[bh+oh[0]:][:plane], xhat[bh+oh[1]:][:plane], xhat[bh+oh[2]:][:plane], xhat[bh+oh[3]:][:plane]
		for j := range p0 {
			e0, e1, e2, e3 := float64(p0[j]), float64(p1[j]), float64(p2[j]), float64(p3[j])
			g0 += e0 * float64(h0[j])
			b0 += e0
			g1 += e1 * float64(h1[j])
			b1 += e1
			g2 += e2 * float64(h2[j])
			b2 += e2
			g3 += e3 * float64(h3[j])
			b3 += e3
		}
	}
	return [bnLanes]float64{g0, g1, g2, g3}, [bnLanes]float64{b0, b1, b2, b3}
}

// forwardChannels normalizes channels [clo,chi): batch statistics in
// training mode, running statistics in evaluation mode.
func (bn *BatchNorm2D) forwardChannels(clo, chi int) {
	x, out := bn.in.Data, bn.out.Data
	n, plane := bn.in.Dim(0), bn.lastPlane
	if !bn.train {
		for c := clo; c < chi; c++ {
			inv := 1.0 / math.Sqrt(float64(bn.RunVar[c])+bn.Eps)
			mean := float64(bn.RunMean[c])
			g, b := float64(bn.gamma.W.Data[c]), float64(bn.beta.W.Data[c])
			for i := 0; i < n; i++ {
				base := (i*bn.C + c) * plane
				tensor.VecBNEval(out[base:base+plane], x[base:base+plane], mean, inv, g, b)
			}
		}
		return
	}
	cnt := float64(n * plane)
	for c := clo; c < chi; c += bnLanes {
		o := bnGroup(c, chi, plane)
		means := bnSums(x, o, [bnLanes]float64{}, false, n, bn.C*plane, plane)
		for k := range means {
			means[k] /= cnt
		}
		vars := bnSums(x, o, means, true, n, bn.C*plane, plane)
		for k := range vars {
			vars[k] /= cnt
		}
		for k := 0; k < min(bnLanes, chi-c); k++ {
			ch, mean, variance := c+k, means[k], vars[k]
			inv := 1.0 / math.Sqrt(variance+bn.Eps)
			bn.mean[ch] = mean
			bn.invStd[ch] = inv
			g, b := float64(bn.gamma.W.Data[ch]), float64(bn.beta.W.Data[ch])
			// Normalize+affine per channel plane through the SIMD kernel
			// (float64 math per element, same operation order as the
			// scalar loop it replaced).
			for i := 0; i < n; i++ {
				base := (i*bn.C + ch) * plane
				tensor.VecBNTrain(out[base:base+plane], x[base:base+plane], mean, inv, g, b)
			}
			bn.RunMean[ch] = float32((1-bn.Momentum)*float64(bn.RunMean[ch]) + bn.Momentum*mean)
			bn.RunVar[ch] = float32((1-bn.Momentum)*float64(bn.RunVar[ch]) + bn.Momentum*variance)
		}
	}
}

// Backward implements Layer (training-mode statistics).
func (bn *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if bn.x == nil {
		panic("nn: BatchNorm2D.Backward before training-mode Forward")
	}
	bn.dx = tensor.Reuse(bn.dx, bn.x.Shape()...)
	bn.dout = dout
	tensor.Parallel(bn.C, bn.bwd)
	bn.dout = nil
	return bn.dx
}

// backwardChannels accumulates dγ and dβ of channels [clo,chi) — bnLanes
// channels abreast, as the forward statistics — and forms their dx. Each
// group's normalized input is recomputed into a scratch of its channels'
// planes, image by image.
func (bn *BatchNorm2D) backwardChannels(clo, chi int) {
	x, dout, dx := bn.x.Data, bn.dout.Data, bn.dx.Data
	n, plane := bn.x.Dim(0), bn.x.Dim(2)*bn.x.Dim(3)
	cnt := float64(n * plane)
	xhat := tensor.GetScratch(n * min(bnLanes, chi-clo) * plane)
	for c := clo; c < chi; c += bnLanes {
		g := min(bnLanes, chi-c) // the group's channels; xhat is (n, g, plane)
		for i := 0; i < n; i++ {
			for k := 0; k < g; k++ {
				base := (i*bn.C + c + k) * plane
				tensor.VecBNXhat(xhat[(i*g+k)*plane:][:plane], x[base:base+plane], bn.mean[c+k], bn.invStd[c+k])
			}
		}
		dgammas, dbetas := bnGradSums(dout, xhat, bnGroup(c, chi, plane), bnGroup(0, g, plane), n, bn.C*plane, g*plane, plane)
		for k := 0; k < g; k++ {
			ch, dgamma, dbeta := c+k, dgammas[k], dbetas[k]
			bn.gamma.G.Data[ch] += float32(dgamma)
			bn.beta.G.Data[ch] += float32(dbeta)

			// dx = (gamma*invStd/cnt) * (cnt*dout - dbeta - xhat*dgamma)
			scale := float64(bn.gamma.W.Data[ch]) * bn.invStd[ch] / cnt
			for i := 0; i < n; i++ {
				base := (i*bn.C + ch) * plane
				tensor.VecBNBwd(dx[base:base+plane], dout[base:base+plane], xhat[(i*g+k)*plane:][:plane], scale, cnt, dbeta, dgamma)
			}
		}
	}
	tensor.PutScratch(xhat)
}

// SetChannels gives the layer c channels, as Conv2D.SetChannels does:
// affine parameters and running statistics are re-sliced within the
// arrays the layer was built with, for the caller to overwrite.
func (bn *BatchNorm2D) SetChannels(c int) {
	if c == bn.C {
		return
	}
	bn.C = c
	bn.gamma.resize(c)
	bn.beta.resize(c)
	bn.RunMean = resliceF32(bn.RunMean, c)
	bn.RunVar = resliceF32(bn.RunVar, c)
}

// resliceF32 returns s with length n, over its own array when that is
// large enough.
func resliceF32(s []float32, n int) []float32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float32, n)
}

func (bn *BatchNorm2D) release() {
	tensor.Recycle(bn.out)
	tensor.Recycle(bn.dx)
	bn.x = nil
}

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.gamma, bn.beta} }

// FLOPs implements Layer: ~4 ops per element (normalize + affine).
func (bn *BatchNorm2D) FLOPs() int64 {
	return 4 * int64(bn.C) * int64(bn.lastPlane)
}

// Name implements Layer.
func (bn *BatchNorm2D) Name() string { return bn.name }
