package nn

import (
	"fmt"

	"spatl/internal/tensor"
)

// MaxPool2D is a max pooling layer with square window and stride equal to
// the window size (non-overlapping), the form used by VGG.
type MaxPool2D struct {
	name    string
	K       int
	argmax  []int32
	inShape []int
	n       int64
	out, dx *tensor.Tensor // output and input gradient (tensor.Reuse)
}

// NewMaxPool2D constructs a KxK non-overlapping max pool.
func NewMaxPool2D(name string, k int) *MaxPool2D {
	return &MaxPool2D{name: name, K: k}
}

// Forward implements Layer. Input (N,C,H,W) with H and W divisible by K.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h%m.K != 0 || w%m.K != 0 {
		panic(fmt.Sprintf("nn: %s input %dx%d not divisible by window %d", m.name, h, w, m.K))
	}
	oh, ow := h/m.K, w/m.K
	out := tensor.Reuse(m.out, n, c, oh, ow)
	m.out = out
	if cap(m.argmax) < out.Len() {
		m.argmax = make([]int32, out.Len())
	}
	m.argmax = m.argmax[:out.Len()]
	m.inShape = append(m.inShape[:0], x.Shape()...)
	tensor.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for ch := 0; ch < c; ch++ {
				inBase := (i*c + ch) * h * w
				outBase := (i*c + ch) * oh * ow
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						best := float32(0)
						bi := int32(0)
						first := true
						for ky := 0; ky < m.K; ky++ {
							for kx := 0; kx < m.K; kx++ {
								idx := inBase + (oy*m.K+ky)*w + ox*m.K + kx
								v := x.Data[idx]
								if first || v > best {
									best, bi, first = v, int32(idx), false
								}
							}
						}
						o := outBase + oy*ow + ox
						out.Data[o] = best
						m.argmax[o] = bi
					}
				}
			}
		}
	})
	m.n = int64(out.Len()/n) * int64(m.K*m.K)
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	// The argmax scatter accumulates, so a reused buffer must be zeroed.
	dx := tensor.Reuse(m.dx, m.inShape...)
	m.dx = dx
	dx.Zero()
	for o, idx := range m.argmax {
		dx.Data[idx] += dout.Data[o]
	}
	return dx
}

func (m *MaxPool2D) release() {
	tensor.Recycle(m.out)
	tensor.Recycle(m.dx)
	m.argmax = nil
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// FLOPs implements Layer: one comparison per window element.
func (m *MaxPool2D) FLOPs() int64 { return m.n }

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// GlobalAvgPool averages each channel's spatial plane, mapping (N,C,H,W)
// to (N,C). ResNets use it before the classifier head.
type GlobalAvgPool struct {
	name    string
	inShape []int
	n       int64
	out, dx *tensor.Tensor // output and input gradient (tensor.Reuse)
}

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	out := tensor.Reuse(g.out, n, c)
	g.out = out
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * plane
			var s float64
			for j := 0; j < plane; j++ {
				s += float64(x.Data[base+j])
			}
			out.Data[i*c+ch] = float32(s / float64(plane))
		}
	}
	g.inShape = append(g.inShape[:0], x.Shape()...)
	g.n = int64(c * plane)
	return out
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	plane := h * w
	dx := tensor.Reuse(g.dx, g.inShape...)
	g.dx = dx
	inv := float32(1.0 / float64(plane))
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			gv := dout.Data[i*c+ch] * inv
			base := (i*c + ch) * plane
			for j := 0; j < plane; j++ {
				dx.Data[base+j] = gv
			}
		}
	}
	return dx
}

func (g *GlobalAvgPool) release() {
	tensor.Recycle(g.out)
	tensor.Recycle(g.dx)
}

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// FLOPs implements Layer.
func (g *GlobalAvgPool) FLOPs() int64 { return g.n }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }
