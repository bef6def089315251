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
	subs   []Layer      // the above in forward order, listed once

	out  *tensor.Tensor // the training-mode output, the final ReLU's gate
	dsum *tensor.Tensor // the gradient at the sum (tensor.Reuse)
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
	b.subs = []Layer{b.conv1, b.bn1, b.relu1, b.conv2, b.bn2}
	if b.scConv != nil {
		b.subs = append(b.subs, b.scConv, b.scBN)
	}
	return b
}

// Forward implements Layer. The sum and the final ReLU run in place in
// bn2's output, which the block returns. In evaluation mode each
// intermediate goes back to the scratch pool as soon as the next layer has
// read it; in training mode the layers keep what their Backward reads, and
// only the projection shortcut's output, read by nothing once added, goes
// back.
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := b.conv1.Forward(x, train)
	main = forwardConsuming(b.bn1, main, train)
	main = b.relu1.Forward(main, train)
	main = forwardConsuming(b.conv2, main, train)
	main = forwardConsuming(b.bn2, main, train)
	if b.scConv != nil {
		short := forwardConsuming(b.scBN, b.scConv.Forward(x, train), train)
		main.AddInPlace(short)
		tensor.Recycle(short)
	} else {
		main.AddInPlace(x)
	}
	tensor.VecReLU(main.Data, main.Data)
	b.out = nil
	if train {
		b.out = main
	}
	return main
}

// forwardConsuming runs l on x, an array the caller's own layer made, and
// in evaluation mode hands x's array back to the scratch pool once l has
// read it into an array of its own.
func forwardConsuming(l Layer, x *tensor.Tensor, train bool) *tensor.Tensor {
	y := l.Forward(x, train)
	if !train && !sameArray(x, y) {
		tensor.Recycle(x)
	}
	return y
}

// backwardConsuming runs l's Backward on dout, an input gradient the
// caller's own layer drew, and hands dout's array back once l has read it.
func backwardConsuming(l Layer, dout *tensor.Tensor) *tensor.Tensor {
	dx := l.Backward(dout)
	if !sameArray(dout, dx) {
		tensor.Recycle(dout)
	}
	return dx
}

// Backward implements Layer. Every gradient but the one it returns (conv1's
// input gradient, with the shortcut's added) goes back to the scratch pool
// once consumed.
func (b *BasicBlock) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if b.out == nil {
		panic("nn: BasicBlock.Backward before training-mode Forward")
	}
	// Final ReLU, gated on its output.
	b.dsum = tensor.Reuse(b.dsum, dout.Shape()...)
	dsum := b.dsum
	tensor.VecReLUBwd(dsum.Data, dout.Data, b.out.Data)
	// Main path.
	d := b.bn2.Backward(dsum)
	d = backwardConsuming(b.conv2, d)
	d = backwardConsuming(b.relu1, d)
	d = backwardConsuming(b.bn1, d)
	dx := backwardConsuming(b.conv1, d)
	// Shortcut path.
	if b.scConv != nil {
		ds := backwardConsuming(b.scConv, b.scBN.Backward(dsum))
		dx.AddInPlace(ds)
		tensor.Recycle(ds)
	} else {
		dx.AddInPlace(dsum)
	}
	tensor.Recycle(dsum)
	return dx
}

// release drops the block's own buffers; nn.Release reaches the sublayers
// through Walk.
func (b *BasicBlock) release() {
	tensor.Recycle(b.dsum)
	b.out = nil
}

// Params implements Layer.
func (b *BasicBlock) Params() []*Param {
	var ps []*Param
	for _, l := range b.subs {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// SubLayers returns the block's constituent layers in forward order
// (main path first, then the projection shortcut when present).
// The list is the block's own: read it, do not store into it.
func (b *BasicBlock) SubLayers() []Layer { return b.subs }

// FLOPs implements Layer.
func (b *BasicBlock) FLOPs() int64 {
	var f int64
	for _, l := range b.subs {
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
