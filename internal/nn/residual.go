package nn

import (
	"math/rand"

	"spatl/internal/tensor"
)

// BasicBlock is the ResNet v1 basic residual block:
//
//	out = ReLU( BN(Conv(ReLU(BN(Conv(x))))) + shortcut(x) )
//
// The shortcut is the identity when shape is preserved, or a strided 1×1
// convolution + BatchNorm when the block changes width or resolution.
type BasicBlock struct {
	name string

	conv1 *Conv2D
	bn1   *BatchNorm2D
	relu1 *ReLU
	conv2 *Conv2D
	bn2   *BatchNorm2D

	scConv *Conv2D      // nil for identity shortcut
	scBN   *BatchNorm2D // nil for identity shortcut

	// Backward caches.
	sum    *tensor.Tensor // pre-activation sum for final ReLU backward
	inSame bool

	out, dsum *tensor.Tensor // reused activation/gradient buffers
}

// NewBasicBlock constructs a basic residual block mapping inC channels to
// outC with the given stride on the first conv.
func NewBasicBlock(name string, inC, outC, stride int, rng *rand.Rand) *BasicBlock {
	return NewBasicBlockInternal(name, inC, outC, outC, stride, rng)
}

// NewBasicBlockInternal constructs a basic block whose internal width
// (conv1's output / conv2's input) differs from the block output width —
// the shape produced by channel-pruning a block's first convolution.
func NewBasicBlockInternal(name string, inC, midC, outC, stride int, rng *rand.Rand) *BasicBlock {
	b := &BasicBlock{name: name}
	b.conv1 = NewConv2D(name+".conv1", inC, midC, 3, stride, 1, false, rng)
	b.bn1 = NewBatchNorm2D(name+".bn1", midC)
	b.relu1 = NewReLU(name + ".relu1")
	b.conv2 = NewConv2D(name+".conv2", midC, outC, 3, 1, 1, false, rng)
	b.bn2 = NewBatchNorm2D(name+".bn2", outC)
	if stride != 1 || inC != outC {
		b.scConv = NewConv2D(name+".sc.conv", inC, outC, 1, stride, 0, false, rng)
		b.scBN = NewBatchNorm2D(name+".sc.bn", outC)
	}
	return b
}

// Forward implements Layer.
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := b.conv1.Forward(x, train)
	main = b.bn1.Forward(main, train)
	main = b.relu1.Forward(main, train)
	main = b.conv2.Forward(main, train)
	main = b.bn2.Forward(main, train)

	var short *tensor.Tensor
	if b.scConv != nil {
		short = b.scConv.Forward(x, train)
		short = b.scBN.Forward(short, train)
	} else {
		short = x
	}
	main.AddInPlace(short)
	if train {
		b.sum = main
	}
	out := tensor.Reuse(b.out, main.Shape()...)
	b.out = out
	tensor.VecReLU(out.Data, main.Data)
	return out
}

// Backward implements Layer.
func (b *BasicBlock) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if b.sum == nil {
		panic("nn: BasicBlock.Backward before training-mode Forward")
	}
	// Final ReLU.
	dsum := tensor.Reuse(b.dsum, dout.Shape()...)
	b.dsum = dsum
	tensor.VecReLUBwd(dsum.Data, dout.Data, b.sum.Data)
	// Main path.
	d := b.bn2.Backward(dsum)
	d = b.conv2.Backward(d)
	d = b.relu1.Backward(d)
	d = b.bn1.Backward(d)
	dx := b.conv1.Backward(d)
	// Shortcut path.
	if b.scConv != nil {
		ds := b.scBN.Backward(dsum)
		ds = b.scConv.Backward(ds)
		dx.AddInPlace(ds)
	} else {
		dx.AddInPlace(dsum)
	}
	return dx
}

// release drops the block's own buffers; nn.Release reaches the sublayers
// through Walk.
func (b *BasicBlock) release() {
	drop(&b.out)
	drop(&b.dsum)
	b.sum = nil
}

// Params implements Layer.
func (b *BasicBlock) Params() []*Param {
	var ps []*Param
	for _, l := range b.sublayers() {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// SubLayers returns the block's constituent layers in forward order
// (main path first, then the projection shortcut when present).
func (b *BasicBlock) SubLayers() []Layer { return b.sublayers() }

func (b *BasicBlock) sublayers() []Layer {
	ls := []Layer{b.conv1, b.bn1, b.relu1, b.conv2, b.bn2}
	if b.scConv != nil {
		ls = append(ls, b.scConv, b.scBN)
	}
	return ls
}

// FLOPs implements Layer.
func (b *BasicBlock) FLOPs() int64 {
	var f int64
	for _, l := range b.sublayers() {
		f += l.FLOPs()
	}
	return f
}

// Name implements Layer.
func (b *BasicBlock) Name() string { return b.name }

// SetInternalWidth gives the block an internal width of mid channels —
// conv1's output, bn1, conv2's input — the shape channel-pruning conv1
// gives it. Up to the width the block was built with it allocates
// nothing (Conv2D.SetChannels); the weights are the caller's to write.
func (b *BasicBlock) SetInternalWidth(mid int) {
	b.conv1.SetChannels(b.conv1.InC, mid)
	b.bn1.SetChannels(mid)
	b.conv2.SetChannels(mid, b.conv2.OutC)
}

// Convs returns the block's prunable convolutions in forward order
// (conv1, conv2, and the shortcut conv when present). The pruning
// subsystem uses this to honour residual channel-compatibility.
func (b *BasicBlock) Convs() (conv1, conv2, shortcut *Conv2D) {
	return b.conv1, b.conv2, b.scConv
}
