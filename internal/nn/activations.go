package nn

import "spatl/internal/tensor"

// ReLU applies max(0,x) elementwise, in place: its output is its input's
// array, and Backward gates on that output, since out > 0 exactly where
// x > 0 (a NaN, ±0 or negative input gives +0). So the layer keeps no
// array of its own for Forward and draws its input gradient from the
// scratch pool.
type ReLU struct {
	name string
	out  *tensor.Tensor // the training-mode output, the gate for Backward
	n    int64
	dx   *tensor.Tensor // input gradient (tensor.Reuse)
}

// NewReLU constructs a ReLU activation.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Forward implements Layer. It overwrites x and returns it.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	tensor.VecReLU(x.Data, x.Data)
	r.out = nil
	if train {
		r.out = x
	}
	r.n = int64(x.Len() / x.Dim(0))
	return x
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if r.out == nil {
		panic("nn: ReLU.Backward before training-mode Forward")
	}
	r.dx = tensor.Reuse(r.dx, dout.Shape()...)
	tensor.VecReLUBwd(r.dx.Data, dout.Data, r.out.Data)
	return r.dx
}

func (r *ReLU) release() {
	tensor.Recycle(r.dx)
	r.out = nil
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// FLOPs implements Layer: one comparison per element.
func (r *ReLU) FLOPs() int64 { return r.n }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Flatten reshapes (N, C, H, W) to (N, C·H·W); it is a no-op for 2-D
// inputs.
type Flatten struct {
	name    string
	shape   []int
	out, dx *tensor.Tensor // views of the input and of dout (tensor.Wrap)
}

// NewFlatten constructs a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.shape = append(f.shape[:0], x.Shape()...)
	f.out = tensor.Wrap(f.out, x.Data, x.Dim(0), x.Len()/x.Dim(0))
	return f.out
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	f.dx = tensor.Wrap(f.dx, dout.Data, f.shape...)
	return f.dx
}

// release forgets the arrays the views point into; they are not the
// layer's.
func (f *Flatten) release() {
	for _, v := range [...]*tensor.Tensor{f.out, f.dx} {
		if v != nil {
			v.Data = nil
		}
	}
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// FLOPs implements Layer.
func (f *Flatten) FLOPs() int64 { return 0 }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }
