// Package models provides the architectures evaluated in the SPATL paper
// — VGG-11, ResNet-20/32 (and ResNet-18/56 for the RL-agent transfer
// study), and the LEAF 2-layer CNN — each built as a SplitModel: a shared
// encoder plus a locally customized predictor head, the decomposition at
// the heart of SPATL's heterogeneous knowledge transfer (§IV-A).
//
// Every architecture takes a width multiplier so the full experiment
// suite runs at laptop scale while preserving topology and
// over-parameterization (see DESIGN.md).
package models

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// Spec describes a model to build. The zero Width means 1.0.
type Spec struct {
	Arch    string // "resnet20", "resnet32", "resnet18", "resnet56", "vgg11", "cnn2", "mlp"
	Classes int
	InC     int     // input channels
	H, W    int     // input spatial size
	Width   float64 // width multiplier applied to all hidden widths
	// Dropout, when positive, inserts dropout with this probability in
	// the VGG classifier head (the canonical VGG regularizer).
	Dropout float64
}

// String renders a compact identifier such as "resnet20(w=0.25,16x16)".
func (s Spec) String() string {
	return fmt.Sprintf("%s(w=%g,%dx%d,c=%d)", s.Arch, s.width(), s.H, s.W, s.Classes)
}

func (s Spec) width() float64 {
	if s.Width <= 0 {
		return 1
	}
	return s.Width
}

// ch scales a base channel count by the width multiplier with a floor of
// 4 channels so tiny configurations stay trainable.
func (s Spec) ch(base int) int {
	c := int(math.Round(float64(base) * s.width()))
	if c < 4 {
		c = 4
	}
	return c
}

// SplitModel is an encoder/predictor pair. In SPATL only the encoder is
// shared with the aggregation server; each client keeps its own
// predictor. Baseline algorithms treat the concatenation as one model.
type SplitModel struct {
	Spec      Spec
	Encoder   *nn.Sequential
	Predictor *nn.Sequential

	cached atomic.Pointer[stateLayout] // see layout in state.go
}

// Build constructs the architecture named by spec, seeding all weight
// initialization from seed.
func Build(spec Spec, seed int64) *SplitModel {
	rng := nn.Rng(seed)
	m := &SplitModel{Spec: spec}
	switch spec.Arch {
	case "resnet20":
		m.Encoder, m.Predictor = buildResNet(spec, 3, []int{16, 32, 64}, rng)
	case "resnet32":
		m.Encoder, m.Predictor = buildResNet(spec, 5, []int{16, 32, 64}, rng)
	case "resnet56":
		m.Encoder, m.Predictor = buildResNet(spec, 9, []int{16, 32, 64}, rng)
	case "resnet18":
		m.Encoder, m.Predictor = buildResNet18(spec, rng)
	case "vgg11":
		m.Encoder, m.Predictor = buildVGG11(spec, rng)
	case "cnn2":
		m.Encoder, m.Predictor = buildCNN2(spec, rng)
	case "mlp":
		m.Encoder, m.Predictor = buildMLP(spec, rng)
	default:
		panic(fmt.Sprintf("models: unknown architecture %q", spec.Arch))
	}
	return m
}

// KnownArch reports whether Build constructs arch.
func KnownArch(arch string) bool {
	switch arch {
	case "resnet20", "resnet32", "resnet56", "resnet18", "vgg11", "cnn2", "mlp":
		return true
	}
	return false
}

// buildResNet builds a CIFAR-style ResNet-(6n+2): stem conv, three stages
// of n basic blocks at the given widths (strides 1,2,2), global average
// pool. The predictor is the final linear classifier.
func buildResNet(spec Spec, n int, widths []int, r *rand.Rand) (*nn.Sequential, *nn.Sequential) {
	w0 := spec.ch(widths[0])
	enc := nn.NewSequential("encoder",
		nn.NewConv2D("stem.conv", spec.InC, w0, 3, 1, 1, false, r),
		nn.NewBatchNorm2D("stem.bn", w0),
		nn.NewReLU("stem.relu"),
	)
	in := w0
	for s, base := range widths {
		out := spec.ch(base)
		for b := 0; b < n; b++ {
			stride := 1
			if s > 0 && b == 0 {
				stride = 2
			}
			enc.Append(nn.NewBasicBlock(fmt.Sprintf("stage%d.block%d", s, b), in, out, stride, r))
			in = out
		}
	}
	enc.Append(nn.NewGlobalAvgPool("gap"))
	pred := nn.NewSequential("predictor", nn.NewLinear("fc", in, spec.Classes, r))
	return enc, pred
}

// buildResNet18 builds a CIFAR-adapted ResNet-18: stem conv, four stages
// of two basic blocks at widths {64,128,256,512}, strides 1,2,2,2.
func buildResNet18(spec Spec, rng *rand.Rand) (*nn.Sequential, *nn.Sequential) {
	w0 := spec.ch(64)
	enc := nn.NewSequential("encoder",
		nn.NewConv2D("stem.conv", spec.InC, w0, 3, 1, 1, false, rng),
		nn.NewBatchNorm2D("stem.bn", w0),
		nn.NewReLU("stem.relu"),
	)
	in := w0
	for s, base := range []int{64, 128, 256, 512} {
		out := spec.ch(base)
		for b := 0; b < 2; b++ {
			stride := 1
			if s > 0 && b == 0 {
				stride = 2
			}
			enc.Append(nn.NewBasicBlock(fmt.Sprintf("stage%d.block%d", s, b), in, out, stride, rng))
			in = out
		}
	}
	enc.Append(nn.NewGlobalAvgPool("gap"))
	pred := nn.NewSequential("predictor", nn.NewLinear("fc", in, spec.Classes, rng))
	return enc, pred
}

// buildVGG11 builds VGG-11 with BatchNorm. The canonical five max-pools
// are kept for the first four; the fifth is replaced by global average
// pooling so the architecture accepts both 32×32 and 16×16 inputs. The
// predictor is a two-layer MLP head, matching the heavier VGG classifier.
func buildVGG11(spec Spec, rng *rand.Rand) (*nn.Sequential, *nn.Sequential) {
	cfg := []int{64, -1, 128, -1, 256, 256, -1, 512, 512, -1, 512, 512}
	enc := nn.NewSequential("encoder")
	in := spec.InC
	ci, pi := 0, 0
	for _, v := range cfg {
		if v == -1 {
			enc.Append(nn.NewMaxPool2D(fmt.Sprintf("pool%d", pi), 2))
			pi++
			continue
		}
		out := spec.ch(v)
		enc.Append(
			nn.NewConv2D(fmt.Sprintf("conv%d", ci), in, out, 3, 1, 1, false, rng),
			nn.NewBatchNorm2D(fmt.Sprintf("bn%d", ci), out),
			nn.NewReLU(fmt.Sprintf("relu%d", ci)),
		)
		in = out
		ci++
	}
	enc.Append(nn.NewGlobalAvgPool("gap"))
	hidden := spec.ch(256)
	pred := nn.NewSequential("predictor",
		nn.NewLinear("fc1", in, hidden, rng),
		nn.NewReLU("relu"),
	)
	if spec.Dropout > 0 {
		pred.Append(nn.NewDropout("drop", spec.Dropout, rng.Int63()))
	}
	pred.Append(nn.NewLinear("fc2", hidden, spec.Classes, rng))
	return enc, pred
}

// buildCNN2 builds the LEAF FEMNIST 2-layer CNN: two 5×5 convolutions
// with 2×2 max pools, then a hidden linear layer. The predictor is the
// final classifier.
func buildCNN2(spec Spec, rng *rand.Rand) (*nn.Sequential, *nn.Sequential) {
	c1, c2 := spec.ch(32), spec.ch(64)
	h, w := spec.H/4, spec.W/4
	hidden := spec.ch(512)
	enc := nn.NewSequential("encoder",
		nn.NewConv2D("conv1", spec.InC, c1, 5, 1, 2, true, rng),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool1", 2),
		nn.NewConv2D("conv2", c1, c2, 5, 1, 2, true, rng),
		nn.NewReLU("relu2"),
		nn.NewMaxPool2D("pool2", 2),
		nn.NewFlatten("flat"),
		nn.NewLinear("fc1", c2*h*w, hidden, rng),
		nn.NewReLU("relu3"),
	)
	pred := nn.NewSequential("predictor", nn.NewLinear("fc2", hidden, spec.Classes, rng))
	return enc, pred
}

// buildMLP builds a small fully connected network for tests and examples.
func buildMLP(spec Spec, rng *rand.Rand) (*nn.Sequential, *nn.Sequential) {
	in := spec.InC * spec.H * spec.W
	hidden := spec.ch(64)
	enc := nn.NewSequential("encoder",
		nn.NewFlatten("flat"),
		nn.NewLinear("fc1", in, hidden, rng),
		nn.NewReLU("relu1"),
		nn.NewLinear("fc2", hidden, hidden, rng),
		nn.NewReLU("relu2"),
	)
	pred := nn.NewSequential("predictor", nn.NewLinear("fc3", hidden, spec.Classes, rng))
	return enc, pred
}

// Forward runs encoder then predictor.
func (m *SplitModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.Predictor.Forward(m.Encoder.Forward(x, train), train)
}

// Backward propagates the logit gradient through predictor and encoder.
func (m *SplitModel) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return m.Encoder.Backward(m.Predictor.Backward(dout))
}

// Params returns all trainable parameters (encoder then predictor). Like
// EncoderParams and PredictorParams it hands out the model's cached
// list, cap-clipped so an append reallocates: read it, append to it, but
// do not store into its elements.
func (m *SplitModel) Params() []*nn.Param { return m.layout().params[ScopeAll] }

// EncoderParams returns the shared (generic) trainable parameters.
func (m *SplitModel) EncoderParams() []*nn.Param { return m.layout().params[ScopeEncoder] }

// PredictorParams returns the locally kept trainable parameters.
func (m *SplitModel) PredictorParams() []*nn.Param { return m.layout().predParams }

// Clone builds a fresh model with the same spec and copies all state
// (weights and BatchNorm running statistics).
func (m *SplitModel) Clone() *SplitModel {
	c := Build(m.Spec, 0)
	c.SetState(ScopeAll, m.State(ScopeAll))
	return c
}

// FLOPs reports per-instance forward FLOPs after a forward pass (use
// Describe to populate geometry).
func (m *SplitModel) FLOPs() int64 { return m.Encoder.FLOPs() + m.Predictor.FLOPs() }

// Release ends a training or evaluation pass: every layer returns the
// arrays it still holds to the scratch pool (see nn.Release) — what a
// training pass kept for Backward, and the outputs Forward returned — so
// a model between passes costs its parameters and statistics, not its
// activations. algo.LocalSGD and eval release on return; the next Forward
// draws pooled arrays again, which every layer overwrites in full, so a
// pass after a release is bitwise the pass without one.
func (m *SplitModel) Release() {
	nn.Release(m.Encoder)
	nn.Release(m.Predictor)
}

// Describe runs a single dummy instance through the model in eval mode so
// every layer caches its geometry, and returns (paramCount, flops).
func (m *SplitModel) Describe() (params int, flops int64) {
	m.Forward(tensor.New(1, m.Spec.InC, m.Spec.H, m.Spec.W), false)
	m.Release()
	return nn.ParamCount(m.Params()), m.FLOPs()
}
