package nn

import (
	"fmt"
	"math/rand"

	"spatl/internal/tensor"
)

// Linear is a fully connected layer computing y = x·Wᵀ + b for input
// (N, In) and weight (Out, In). Forward transposes W into scratch on every
// call (tensor.MatMulTransBInto); backward reads W, dout and x as they lie.
// Nothing derived from the weights is kept between calls.
type Linear struct {
	name    string
	In, Out int
	weight  *Param
	bias    *Param
	x       *tensor.Tensor // the input, kept in training mode for Backward
	out, dx *tensor.Tensor // output and input gradient (tensor.Reuse)
	dw      *tensor.Tensor // Backward's weight-gradient term, array recycled on return
}

// NewLinear constructs a fully connected layer with He-normal weights and
// zero bias.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{name: name, In: in, Out: out}
	l.weight = newParam("weight", out, in)
	l.weight.W.KaimingNormal(rng, in)
	l.bias = newParam("bias", out)
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s expects (N,%d), got %v", l.name, l.In, x.Shape()))
	}
	out := tensor.Reuse(l.out, x.Dim(0), l.Out)
	l.out = out
	n := x.Dim(0)
	tensor.MatMulTransBInto(out, x, l.weight.W)
	for i := 0; i < n; i++ {
		tensor.VecAdd(out.Data[i*l.Out:(i+1)*l.Out], l.bias.W.Data)
	}
	l.x = nil
	if train {
		l.x = x
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: Linear.Backward before training-mode Forward")
	}
	// dW += doutᵀ·x ; db += column sums of dout ; dx = dout·W
	l.dw = tensor.Reuse(l.dw, l.Out, l.In)
	tensor.MatMulTransAInto(l.dw, dout, l.x)
	tensor.VecAdd(l.weight.G.Data, l.dw.Data)
	tensor.Recycle(l.dw)
	n := dout.Dim(0)
	for i := 0; i < n; i++ {
		tensor.VecAdd(l.bias.G.Data, dout.Data[i*l.Out:(i+1)*l.Out])
	}
	dx := tensor.Reuse(l.dx, dout.Dim(0), l.In)
	l.dx = dx
	// W is already the (k=Out, n=In) vector-side operand.
	tensor.MatMulInto(dx, dout, l.weight.W)
	return dx
}

func (l *Linear) release() {
	tensor.Recycle(l.out)
	tensor.Recycle(l.dx)
	l.x = nil
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.weight, l.bias} }

// FLOPs implements Layer: 2·In·Out multiply-adds plus Out bias adds.
func (l *Linear) FLOPs() int64 { return 2*int64(l.In)*int64(l.Out) + int64(l.Out) }

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Weight exposes the weight parameter for pruning and inspection.
func (l *Linear) Weight() *Param { return l.weight }
