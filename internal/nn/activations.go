package nn

import "spatl/internal/tensor"

// ReLU applies max(0,x) elementwise.
type ReLU struct {
	name    string
	x       *tensor.Tensor // input cached in train mode for Backward
	n       int64
	out, dx *tensor.Tensor // reused activation/gradient buffers
}

// NewReLU constructs a ReLU activation.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Forward implements Layer. Instead of materializing a bool mask, the
// input tensor is retained and Backward re-derives the gate from it with
// the SIMD kernel; the input buffer is stable until the producing layer's
// next Forward, which is after our Backward.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.Reuse(r.out, x.Shape()...)
	r.out = out
	tensor.VecReLU(out.Data, x.Data)
	if train {
		r.x = x
	}
	r.n = int64(x.Len() / x.Dim(0))
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if r.x == nil {
		panic("nn: ReLU.Backward before training-mode Forward")
	}
	dx := tensor.Reuse(r.dx, dout.Shape()...)
	r.dx = dx
	tensor.VecReLUBwd(dx.Data, dout.Data, r.x.Data)
	return dx
}

func (r *ReLU) release() {
	drop(&r.out)
	drop(&r.dx)
	r.x = nil
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
	name  string
	shape []int
}

// NewFlatten constructs a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.shape = append(f.shape[:0], x.Shape()...)
	return x.Reshape(x.Dim(0), x.Len()/x.Dim(0))
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return dout.Reshape(f.shape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// FLOPs implements Layer.
func (f *Flatten) FLOPs() int64 { return 0 }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }
