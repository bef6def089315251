package nn

import (
	"math/rand"

	"spatl/internal/tensor"
)

// Dropout randomly zeroes activations during training with probability P
// and rescales the survivors by 1/(1−P) (inverted dropout), so
// evaluation-mode forward passes are the identity.
type Dropout struct {
	name string
	P    float64
	rng  *rand.Rand
	mask []bool
	n    int64

	out, dx *tensor.Tensor // output and input gradient (tensor.Reuse)
}

// NewDropout constructs a dropout layer with its own seeded source; each
// training forward pass draws a fresh mask.
func NewDropout(name string, p float64, seed int64) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{name: name, P: p, rng: rand.New(rand.NewSource(seed))}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.n = int64(x.Len() / x.Dim(0))
	if !train || d.P == 0 {
		return x
	}
	out := tensor.Reuse(d.out, x.Shape()...)
	d.out = out
	if cap(d.mask) < x.Len() {
		d.mask = make([]bool, x.Len())
	}
	d.mask = d.mask[:x.Len()]
	scale := float32(1 / (1 - d.P))
	for i, v := range x.Data {
		keep := d.rng.Float64() >= d.P
		d.mask[i] = keep
		if keep {
			out.Data[i] = v * scale
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if d.P == 0 {
		return dout
	}
	dx := tensor.Reuse(d.dx, dout.Shape()...)
	d.dx = dx
	scale := float32(1 / (1 - d.P))
	for i, v := range dout.Data {
		if d.mask[i] {
			dx.Data[i] = v * scale
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

func (d *Dropout) release() {
	tensor.Recycle(d.out)
	tensor.Recycle(d.dx)
	d.mask = nil
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// FLOPs implements Layer.
func (d *Dropout) FLOPs() int64 { return d.n }

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }
