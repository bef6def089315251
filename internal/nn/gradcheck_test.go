package nn

import (
	"math"
	"math/rand"
	"testing"

	"spatl/internal/tensor"
)

// lossOf runs a training-mode forward through layer and returns the mean
// cross-entropy against fixed labels — a scalar function of both the
// layer input and its parameters, used for numerical gradient checks.
func lossOf(l Layer, x *tensor.Tensor, labels []int) float64 {
	out := l.Forward(x.Clone(), true)
	if out.Rank() > 2 {
		out = tensor.Wrap(nil, out.Data, out.Dim(0), out.Len()/out.Dim(0))
	}
	loss, _ := SoftmaxCrossEntropy(out, labels)
	return loss
}

// checkLayerGradients compares analytic input and parameter gradients of
// a layer against central finite differences.
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	ZeroGrad(l.Params())
	out := l.Forward(x.Clone(), true)
	flatOut := out
	if out.Rank() > 2 {
		flatOut = tensor.Wrap(nil, out.Data, out.Dim(0), out.Len()/out.Dim(0))
	}
	_, dlogits := SoftmaxCrossEntropy(flatOut, labels)
	if out.Rank() > 2 {
		dlogits = tensor.Wrap(nil, dlogits.Data, out.Shape()...)
	}
	dx := l.Backward(dlogits)

	const eps = 1e-2
	// Input gradient at a sample of positions.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		i := rng.Intn(x.Len())
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(l, x, labels)
		x.Data[i] = orig - eps
		lm := lossOf(l, x, labels)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(dx.Data[i])
		if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s input grad[%d]: numeric %v analytic %v", l.Name(), i, num, ana)
		}
	}
	// Parameter gradients at a sample of positions.
	for _, p := range l.Params() {
		for trial := 0; trial < 8; trial++ {
			i := rng.Intn(p.W.Len())
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := lossOf(l, x, labels)
			p.W.Data[i] = orig - eps
			lm := lossOf(l, x, labels)
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(p.G.Data[i])
			if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s param %s grad[%d]: numeric %v analytic %v", l.Name(), p.Name, i, num, ana)
			}
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("fc", 6, 4, rng)
	x := tensor.New(5, 6)
	x.Randn(rng, 1)
	checkLayerGradients(t, l, x, []int{0, 1, 2, 3, 0}, 2e-2)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv := NewConv2D("conv", 2, 3, 3, 1, 1, true, rng)
	seq := NewSequential("net", conv, NewFlatten("flat"), NewLinear("fc", 3*4*4, 3, rng))
	x := tensor.New(3, 2, 4, 4)
	x.Randn(rng, 1)
	checkLayerGradients(t, seq, x, []int{0, 1, 2}, 3e-2)
}

func TestConv2DStrideGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv2D("conv", 2, 2, 3, 2, 1, false, rng)
	seq := NewSequential("net", conv, NewFlatten("flat"), NewLinear("fc", 2*3*3, 3, rng))
	x := tensor.New(2, 2, 6, 6)
	x.Randn(rng, 1)
	checkLayerGradients(t, seq, x, []int{2, 0}, 3e-2)
}

// TestConv2DOddShapeBatchGradients exercises the implicit-GEMM route at
// batch > 1 with non-square odd spatial dims and an output-channel count
// that is not a multiple of the GEMM tile (remainder rows and remainder
// panel columns at once).
func TestConv2DOddShapeBatchGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	conv := NewConv2D("conv", 3, 5, 3, 1, 1, true, rng)
	seq := NewSequential("net", conv, NewFlatten("flat"), NewLinear("fc", 5*7*5, 4, rng))
	x := tensor.New(3, 3, 7, 5)
	x.Randn(rng, 1)
	checkLayerGradients(t, seq, x, []int{0, 3, 2}, 3e-2)
}

// TestConv2DOddStrideBatchGradients does the same for a strided geometry
// where OutH/OutW round down unevenly.
func TestConv2DOddStrideBatchGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	conv := NewConv2D("conv", 2, 7, 3, 2, 0, false, rng)
	seq := NewSequential("net", conv, NewFlatten("flat"), NewLinear("fc", 7*3*2, 3, rng))
	x := tensor.New(4, 2, 7, 6)
	x.Randn(rng, 1)
	checkLayerGradients(t, seq, x, []int{1, 2, 0, 1}, 3e-2)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bn := NewBatchNorm2D("bn", 3)
	// Perturb gamma/beta away from defaults so gradients are generic.
	for i := range bn.gamma.W.Data {
		bn.gamma.W.Data[i] = float32(0.5 + rng.Float64())
	}
	bn.beta.W.Randn(rng, 0.3)
	seq := NewSequential("net", bn, NewFlatten("flat"), NewLinear("fc", 3*2*2, 3, rng))
	x := tensor.New(4, 3, 2, 2)
	x.Randn(rng, 2)
	checkLayerGradients(t, seq, x, []int{0, 1, 2, 1}, 5e-2)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seq := NewSequential("net", NewLinear("fc1", 5, 8, rng), NewReLU("relu"), NewLinear("fc2", 8, 3, rng))
	x := tensor.New(4, 5)
	x.Randn(rng, 1)
	checkLayerGradients(t, seq, x, []int{0, 2, 1, 0}, 2e-2)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seq := NewSequential("net",
		NewConv2D("conv", 1, 2, 3, 1, 1, false, rng),
		NewMaxPool2D("pool", 2),
		NewFlatten("flat"),
		NewLinear("fc", 2*2*2, 3, rng))
	x := tensor.New(2, 1, 4, 4)
	x.Randn(rng, 1)
	checkLayerGradients(t, seq, x, []int{1, 2}, 3e-2)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := NewSequential("net",
		NewConv2D("conv", 1, 3, 3, 1, 1, false, rng),
		NewGlobalAvgPool("gap"),
		NewLinear("fc", 3, 3, rng))
	x := tensor.New(2, 1, 5, 5)
	x.Randn(rng, 1)
	checkLayerGradients(t, seq, x, []int{0, 2}, 3e-2)
}

func TestBasicBlockIdentityGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	seq := NewSequential("net",
		NewBasicBlock("block", 2, 2, 1, rng),
		NewGlobalAvgPool("gap"),
		NewLinear("fc", 2, 3, rng))
	x := tensor.New(3, 2, 4, 4)
	x.Randn(rng, 1)
	checkLayerGradients(t, seq, x, []int{0, 1, 2}, 6e-2)
}

func TestBasicBlockProjectionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := NewSequential("net",
		NewBasicBlock("block", 2, 4, 2, rng),
		NewGlobalAvgPool("gap"),
		NewLinear("fc", 4, 3, rng))
	x := tensor.New(2, 2, 4, 4)
	x.Randn(rng, 1)
	checkLayerGradients(t, seq, x, []int{1, 0}, 6e-2)
}
