// Package nn is a from-scratch neural-network substrate: layers with
// explicit forward/backward passes, SGD/Adam optimizers, cross-entropy
// loss, parameter handling, and per-layer FLOPs accounting. It exists
// because Go has no mature DNN training library; SPATL and all baseline
// federated-learning algorithms in this repository train real networks
// through this package.
//
// Tensors flow through layers in NCHW layout: conv inputs are
// (batch, channels, height, width); linear inputs are (batch, features).
// Backward passes mirror forward passes layer by layer; gradients
// accumulate into each Param's G tensor, so callers must ZeroGrad between
// steps.
package nn

import (
	"fmt"
	"math/rand"

	"spatl/internal/tensor"
)

// Param is a named trainable parameter with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// newParam allocates a parameter and matching zero gradient.
func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), G: tensor.New(shape...)}
}

// resize gives the parameter and its gradient a new shape, re-sliced
// within their arrays when those are large enough (tensor.Reuse), with
// contents for the caller to overwrite.
func (p *Param) resize(shape ...int) {
	p.W = tensor.Reuse(p.W, shape...)
	p.G = tensor.Reuse(p.G, shape...)
}

// Layer is a differentiable network module.
//
// Buffer ownership. In a training pass a layer keeps only what its
// Backward reads — Conv2D and Linear their input, BatchNorm2D its input
// and batch statistics, ReLU its output (it runs in place) — and
// everything else is transient. A layer takes its output and its input
// gradient with tensor.Reuse into a header it holds for its lifetime, or
// returns its input's own array (ReLU, an evaluation-mode Dropout, and
// Flatten through a held view header); a composite returns one of its
// layers' arrays, never a view of one. The container a tensor is returned
// to (Sequential, BasicBlock) hands its array back with tensor.Recycle as
// soon as the next layer has read it: every input gradient, and in
// evaluation mode every activation. Recycle and Release take the array
// and leave the header with its layer, so a pass after either allocates
// no header. The tensor a composite returns is the exception: it stays
// valid until that composite's next Forward (Backward) or until the
// model is released (Release), after which it holds no array. Until then
// a caller may run a second module on it (SPATL's predictor trains on its
// frozen encoder's output). Callers that need a result to survive a later
// pass must Clone it, and a Forward may overwrite its input.
type Layer interface {
	// Forward runs the layer on a batch. train selects training-mode
	// behaviour (batch statistics, dropout); layers cache whatever they
	// need for Backward.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the layer output and returns
	// the gradient w.r.t. the layer input, accumulating parameter
	// gradients as a side effect. Must follow a training-mode Forward.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (empty for
	// stateless layers).
	Params() []*Param
	// FLOPs reports the forward floating-point operation count for a
	// single input instance, based on the geometry seen at the most
	// recent Forward. Returns 0 before any Forward.
	FLOPs() int64
	// Name returns a short human-readable layer identifier.
	Name() string
}

// Sequential chains layers; it is itself a Layer.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential builds a named layer chain.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) {
	s.Layers = append(s.Layers, layers...)
}

// Forward implements Layer. In evaluation mode each layer's output goes
// back to the scratch pool once the next layer has read it, so the chain
// holds a couple of activations at once; a training pass keeps them for
// Backward.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	var made *tensor.Tensor // the array x lies in, when a layer of s made it
	for _, l := range s.Layers {
		y := l.Forward(x, train)
		if !sameArray(x, y) {
			if !train {
				tensor.Recycle(made)
			}
			made = y
		}
		x = y
	}
	return x
}

// Backward implements Layer. Each input gradient goes back to the scratch
// pool once the layer below has read it.
func (s *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	var made *tensor.Tensor // the array dout lies in, when a layer of s made it
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dx := s.Layers[i].Backward(dout)
		if !sameArray(dout, dx) {
			tensor.Recycle(made)
			made = dx
		}
		dout = dx
	}
	return dout
}

// sameArray reports whether a and b lie in one array: a layer that ran in
// place or returned a view of its input.
func sameArray(a, b *tensor.Tensor) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// Params implements Layer; parameter names are prefixed with the
// sequential's name and the layer position so they are unique and stable.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for i, l := range s.Layers {
		for _, p := range l.Params() {
			q := *p
			q.Name = fmt.Sprintf("%s.%d.%s", s.name, i, p.Name)
			// Share the underlying tensors: copy of the struct keeps the
			// same W/G pointers, only the reported name changes.
			ps = append(ps, &Param{Name: q.Name, W: p.W, G: p.G})
		}
	}
	return ps
}

// FLOPs implements Layer.
func (s *Sequential) FLOPs() int64 {
	var total int64
	for _, l := range s.Layers {
		total += l.FLOPs()
	}
	return total
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// ZeroGrad zeroes every gradient in the parameter list.
func ZeroGrad(params []*Param) {
	for _, p := range params {
		p.G.Zero()
	}
}

// ParamCount returns the total number of scalar weights.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.W.Len()
	}
	return n
}

// FlattenParams concatenates all weights into one vector (a fresh slice).
func FlattenParams(params []*Param) []float32 {
	return FlattenParamsInto(make([]float32, 0, ParamCount(params)), params)
}

// FlattenParamsInto is FlattenParams appending to dst[:0], over dst's
// array when it is large enough.
func FlattenParamsInto(dst []float32, params []*Param) []float32 {
	out := dst[:0]
	for _, p := range params {
		out = append(out, p.W.Data...)
	}
	return out
}

// UnflattenParams writes a flat vector back into the parameter tensors.
func UnflattenParams(params []*Param, flat []float32) {
	off := 0
	for _, p := range params {
		n := p.W.Len()
		if off+n > len(flat) {
			panic("nn: UnflattenParams vector too short")
		}
		copy(p.W.Data, flat[off:off+n])
		off += n
	}
	if off != len(flat) {
		panic(fmt.Sprintf("nn: UnflattenParams vector length %d, consumed %d", len(flat), off))
	}
}

// Rng is a convenience constructor for a seeded random source.
func Rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// releaser is a layer that holds buffers between passes.
type releaser interface{ release() }

// Release ends a pass: l and its descendants return every array they
// still hold — the activations a training pass kept, the tensor a
// composite returned, gradients no container consumed — to the scratch
// pool (tensor.Recycle) and drop the inputs they kept for Backward. What
// stays is what a model is: parameters, running statistics, the geometry
// FLOPs reports, and the array-less tensor headers, so the next pass's
// tensor.Reuse refills them without allocating. The next Forward draws
// pooled arrays, which every layer overwrites in full, so a pass after a
// release computes exactly what it would have computed without one.
func Release(l Layer) {
	Walk(l, func(l Layer) {
		if r, ok := l.(releaser); ok {
			r.release()
		}
	})
}

// Walk visits l and all of its descendants depth-first in forward order.
// It understands the composite layers defined in this package
// (Sequential and BasicBlock).
func Walk(l Layer, fn func(Layer)) {
	fn(l)
	switch v := l.(type) {
	case *Sequential:
		for _, c := range v.Layers {
			Walk(c, fn)
		}
	case *BasicBlock:
		for _, c := range v.SubLayers() {
			Walk(c, fn)
		}
	}
}
