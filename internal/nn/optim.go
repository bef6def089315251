package nn

import (
	"math"

	"spatl/internal/tensor"
)

// SGD implements stochastic gradient descent with classical momentum and
// decoupled-from-loss L2 weight decay (decay is added to the gradient, as
// in the reference implementations of the FL baselines).
type SGD struct {
	params      []*Param
	lr          float64
	Momentum    float64
	WeightDecay float64
	// velocity holds every parameter's momentum end to end, in params
	// order, in one array from the scratch pool (nil without momentum).
	velocity []float32
}

// NewSGD constructs an SGD optimizer over params. Its momentum buffers are
// drawn from the scratch pool, zeroed; Release hands them back.
func NewSGD(params []*Param, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{params: params, lr: lr, Momentum: momentum, WeightDecay: weightDecay}
	if momentum != 0 {
		s.velocity = tensor.GetScratch(ParamCount(params))
		clear(s.velocity)
	}
	return s
}

// Step applies one update from the parameters' current gradients. The
// update runs through the SIMD step kernels (same per-element operation
// chains as the scalar loops they replaced).
func (s *SGD) Step() {
	lr := float32(s.lr)
	wd := float32(s.WeightDecay)
	mu := float32(s.Momentum)
	off := 0
	for _, p := range s.params {
		if s.velocity == nil {
			tensor.VecSGDStep(p.W.Data, p.G.Data, lr, wd)
			continue
		}
		n := p.W.Len()
		tensor.VecSGDMomStep(p.W.Data, s.velocity[off:off+n], p.G.Data, lr, wd, mu)
		off += n
	}
}

// LR returns the learning rate.
func (s *SGD) LR() float64 { return s.lr }

// Velocity returns the momentum buffers, every parameter's end to end
// (nil when momentum is disabled). The slice is the optimizer's own,
// valid until Release: a caller that keeps it copies it (FedNova ships
// it so the server can aggregate and redistribute momentum state).
func (s *SGD) Velocity() []float32 { return s.velocity }

// SetVelocity installs flattened momentum buffers previously produced by
// Velocity.
func (s *SGD) SetVelocity(flat []float32) { copy(s.velocity, flat) }

// Release hands the momentum buffers back to the scratch pool; the
// optimizer must not step afterwards.
func (s *SGD) Release() {
	tensor.PutScratch(s.velocity)
	s.velocity = nil
}

// Adam implements the Adam optimizer (Kingma & Ba); the paper uses it to
// update the PPO agent (lr 1e-4, default betas).
type Adam struct {
	params []*Param
	lr     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	t      int
	m, v   []*tensor.Tensor
}

// NewAdam constructs an Adam optimizer with standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.W.Shape()...)
		a.v[i] = tensor.New(p.W.Shape()...)
	}
	return a
}

// Step applies one update from the parameters' current gradients.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.G.Data {
			gf := float64(g)
			mj := a.Beta1*float64(m.Data[j]) + (1-a.Beta1)*gf
			vj := a.Beta2*float64(v.Data[j]) + (1-a.Beta2)*gf*gf
			m.Data[j] = float32(mj)
			v.Data[j] = float32(vj)
			mhat := mj / bc1
			vhat := vj / bc2
			p.W.Data[j] -= float32(a.lr * mhat / (math.Sqrt(vhat) + a.Eps))
		}
	}
}

// Reset zeroes the moment estimates and the step count, so the next
// Step is the first step of a fresh NewAdam over the same parameters.
func (a *Adam) Reset() {
	a.t = 0
	for i := range a.m {
		clear(a.m[i].Data)
		clear(a.v[i].Data)
	}
}

// LR returns the learning rate.
func (a *Adam) LR() float64 { return a.lr }

// ClipGradNorm scales all gradients so their global L2 norm does not
// exceed maxNorm; returns the pre-clip norm. A no-op when maxNorm <= 0.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.G.Data {
			sq += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm > 0 && norm > maxNorm {
		scale := float32(maxNorm / (norm + 1e-12))
		for _, p := range params {
			p.G.Scale(scale)
		}
	}
	return norm
}
