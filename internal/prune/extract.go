package prune

import (
	"fmt"

	"spatl/internal/models"
	"spatl/internal/nn"
)

// Extract materializes a selection as a physically smaller model:
// pruned channels are removed from the tensors instead of masked to
// zero, so the returned model really runs with fewer FLOPs and
// parameters — the deployed form behind the paper's inference
// acceleration results (§V-D). In evaluation mode the extracted model
// computes bit for bit the function of the masked original: every term
// it leaves out of a dot product is a pruned channel's exact zero, and
// adding ±0 to a running sum started from +0 changes no bit.
//
// The returned model shares no tensors with the input. Its Spec is
// copied verbatim for reference, but the model's channel widths no
// longer follow the spec — Clone/Build round-trips are not meaningful
// on extracted models; use them for inference and fine-tuning.
func Extract(m *models.SplitModel, sel *Selection) *models.SplitModel {
	return newWorkspace(m).extract(m, sel)
}

// workspace is an extraction target that is used again and again: a
// full-width copy of one model's layer structure, re-sliced to each
// selection's widths (nn's SetChannels) and refilled from the model, so
// an extraction into it after the first allocates no layer and no
// tensor. Its model is for Forward only: the cached state layout of a
// SplitModel does not follow a re-slice.
type workspace struct {
	m     *models.SplitModel
	chain bool      // the prunable units are top-level convs (VGG-11, CNN2), not blocks
	idx   [2][]int  // kept channel indices of alternate units
	sel   Selection // the slot's selection, refilled by each Env.Step
}

// newWorkspace builds a workspace over m's layer structure.
func newWorkspace(m *models.SplitModel) *workspace {
	w := &workspace{}
	switch m.Spec.Arch {
	case "resnet20", "resnet32", "resnet56", "resnet18":
	case "vgg11", "cnn2":
		w.chain = true
	default:
		panic(fmt.Sprintf("prune: Extract does not support architecture %q", m.Spec.Arch))
	}
	w.m = &models.SplitModel{Spec: m.Spec, Encoder: skeleton(m.Encoder), Predictor: skeleton(m.Predictor)}
	return w
}

// skeleton builds a sequential of s's layer types at s's widths, with
// weights for extract to overwrite.
func skeleton(s *nn.Sequential) *nn.Sequential {
	rng := nn.Rng(0)
	out := nn.NewSequential(s.Name())
	for _, l := range s.Layers {
		switch v := l.(type) {
		case *nn.Conv2D:
			out.Append(nn.NewConv2D(v.Name(), v.InC, v.OutC, v.K, v.Stride, v.Pad, len(v.Params()) > 1, rng))
		case *nn.BatchNorm2D:
			out.Append(nn.NewBatchNorm2D(v.Name(), v.C))
		case *nn.BasicBlock:
			conv1, conv2, _ := v.Convs()
			out.Append(nn.NewBasicBlockInternal(v.Name(), conv1.InC, conv1.OutC, conv2.OutC, conv1.Stride, rng))
		case *nn.Linear:
			out.Append(nn.NewLinear(v.Name(), v.In, v.Out, rng))
		case *nn.ReLU:
			out.Append(nn.NewReLU(v.Name()))
		case *nn.MaxPool2D:
			out.Append(nn.NewMaxPool2D(v.Name(), v.K))
		case *nn.GlobalAvgPool:
			out.Append(nn.NewGlobalAvgPool(v.Name()))
		case *nn.Flatten:
			out.Append(nn.NewFlatten(v.Name()))
		default:
			panic(fmt.Sprintf("prune: cannot extract a %T layer", l))
		}
	}
	return out
}

// extract re-slices the workspace to sel's widths, fills it from m (whose
// structure it was built over) and returns its model. A ResNet keeps its
// block outputs, and so its residual adds and shortcuts, at full width:
// each block's internal width shrinks to its unit's kept channels. In a
// conv chain each pruned conv shrinks its output channels and the next
// conv's input channels shrink to match; the final conv keeps its width,
// so the predictor input is unchanged.
func (w *workspace) extract(m *models.SplitModel, sel *Selection) *models.SplitModel {
	unit := 0
	var prev []int // kept channels feeding the current layer; nil = all
	for i, l := range m.Encoder.Layers {
		switch v := l.(type) {
		case *nn.Conv2D:
			var keep []int
			if w.chain && unit < len(sel.Masks) {
				keep = w.keepIndices(unit, sel.Masks[unit])
				unit++
			}
			c := w.m.Encoder.Layers[i].(*nn.Conv2D)
			c.SetChannels(width(prev, v.InC), width(keep, v.OutC))
			copyConv(c, v, keep, prev)
			prev = keep
		case *nn.BatchNorm2D:
			bn := w.m.Encoder.Layers[i].(*nn.BatchNorm2D)
			bn.SetChannels(width(prev, v.C))
			copyBN(bn, v, prev)
		case *nn.BasicBlock:
			if unit >= len(sel.Masks) {
				panic(fmt.Sprintf("prune: %d masks for more blocks", len(sel.Masks)))
			}
			keep := w.keepIndices(unit, sel.Masks[unit])
			unit++
			nb := w.m.Encoder.Layers[i].(*nn.BasicBlock)
			nb.SetInternalWidth(len(keep))
			conv1, conv2, sc := v.Convs()
			nc1, nc2, nsc := nb.Convs()
			copyConv(nc1, conv1, keep, nil)
			copyConv(nc2, conv2, nil, keep)
			subs, nsubs := v.SubLayers(), nb.SubLayers()
			copyBN(nsubs[1].(*nn.BatchNorm2D), subs[1].(*nn.BatchNorm2D), keep) // bn1
			copyBN(nsubs[4].(*nn.BatchNorm2D), subs[4].(*nn.BatchNorm2D), nil)  // bn2
			if sc != nil {
				copyConv(nsc, sc, nil, nil)
				copyBN(nsubs[6].(*nn.BatchNorm2D), subs[6].(*nn.BatchNorm2D), nil)
			}
		case *nn.Linear:
			// Encoder linears (CNN2's fc1) follow the final, unpruned conv.
			copyLinear(w.m.Encoder.Layers[i].(*nn.Linear), v)
		}
	}
	if unit != len(sel.Masks) {
		panic(fmt.Sprintf("prune: used %d of %d masks", unit, len(sel.Masks)))
	}
	for i, l := range m.Predictor.Layers {
		if v, ok := l.(*nn.Linear); ok {
			copyLinear(w.m.Predictor.Layers[i].(*nn.Linear), v)
		}
	}
	return w.m
}

// keepIndices lists the surviving channel indices of unit's mask in
// order, in the workspace's buffer for the unit's parity (a chain conv
// reads the previous unit's list while this one is written).
func (w *workspace) keepIndices(unit int, mask Mask) []int {
	out := w.idx[unit%2][:0]
	for i, k := range mask.Keep {
		if k {
			out = append(out, i)
		}
	}
	w.idx[unit%2] = out
	return out
}

// width is the channel count a kept-index list leaves of n (all when nil).
func width(keep []int, n int) int {
	if keep == nil {
		return n
	}
	return len(keep)
}

// pick is the source index of kept entry i.
func pick(keep []int, i int) int {
	if keep == nil {
		return i
	}
	return keep[i]
}

// copyConv copies src's filters into dst, keeping only the given output
// rows and input channel groups (nil means all).
func copyConv(dst, src *nn.Conv2D, keepOut, keepIn []int) {
	kk := src.K * src.K
	srcW, dstW := src.Weight().W, dst.Weight().W
	srcCols, dstCols := srcW.Dim(1), dstW.Dim(1)
	nOut, nIn := width(keepOut, src.OutC), width(keepIn, src.InC)
	if nOut != dstW.Dim(0) || nIn*kk != dstCols {
		panic(fmt.Sprintf("prune: copyConv shape mismatch dst(%d,%d) keepOut=%d keepIn=%d",
			dstW.Dim(0), dstCols, nOut, nIn))
	}
	for di := 0; di < nOut; di++ {
		so := pick(keepOut, di)
		srcRow := srcW.Data[so*srcCols : (so+1)*srcCols]
		dstRow := dstW.Data[di*dstCols : (di+1)*dstCols]
		for dj := 0; dj < nIn; dj++ {
			si := pick(keepIn, dj)
			copy(dstRow[dj*kk:(dj+1)*kk], srcRow[si*kk:(si+1)*kk])
		}
	}
	// Bias, when present, follows the output channels.
	sp, dp := src.Params(), dst.Params()
	if len(sp) > 1 && len(dp) > 1 {
		for di := 0; di < nOut; di++ {
			dp[1].W.Data[di] = sp[1].W.Data[pick(keepOut, di)]
		}
	}
}

// copyBN copies the kept channels of src's affine parameters and running
// statistics into dst (nil keeps all).
func copyBN(dst, src *nn.BatchNorm2D, keep []int) {
	sp, dp := src.Params(), dst.Params()
	sg, sb := sp[0].W.Data, sp[1].W.Data
	dg, db := dp[0].W.Data, dp[1].W.Data
	for di := 0; di < width(keep, src.C); di++ {
		si := pick(keep, di)
		dg[di] = sg[si]
		db[di] = sb[si]
		dst.RunMean[di] = src.RunMean[si]
		dst.RunVar[di] = src.RunVar[si]
	}
}

// copyLinear copies a fully connected layer verbatim.
func copyLinear(dst, src *nn.Linear) {
	dst.Weight().W.CopyFrom(src.Weight().W)
	dst.Params()[1].W.CopyFrom(src.Params()[1].W)
}
