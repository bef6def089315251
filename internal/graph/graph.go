// Package graph converts a neural network into the simplified
// computational graph the SPATL salient-parameter agent consumes
// (§IV-B): nodes are hidden feature maps, edges are machine-learning
// operations (conv, batch-norm, ReLU, pooling, linear, residual add)
// rather than primitive arithmetic. Edge feature vectors summarize each
// operation's geometry, cost and current weight statistics; the GNN-based
// RL agent embeds the topology from them.
package graph

import (
	"math"

	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// OpType enumerates the machine-learning operations that appear as graph
// edges.
type OpType int

// Edge operation kinds.
const (
	OpConv OpType = iota
	OpBatchNorm
	OpReLU
	OpMaxPool
	OpGlobalPool
	OpLinear
	OpAdd
	OpFlatten
	numOpTypes
)

var opNames = [...]string{"conv", "bn", "relu", "maxpool", "gap", "linear", "add", "flatten"}

// String returns the operation name.
func (o OpType) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// FeatureDim is the length of every edge feature vector.
const FeatureDim = int(numOpTypes) + 8

// Edge is one operation connecting two feature-map nodes.
type Edge struct {
	Src, Dst int
	Op       OpType
	// PrunableIdx is the index into the model's prunable-conv list when
	// this edge is a prunable convolution, else -1.
	PrunableIdx int

	// Geometry and statistics used to build the feature vector.
	InC, OutC  int
	Kernel     int
	Stride     int
	ParamCount int
	FLOPs      int64
	WeightL1   float64 // mean |w| of the operation's weights (0 if none)
}

// Graph is the simplified computational graph of one encoder.
type Graph struct {
	NumNodes    int
	Edges       []Edge
	NumPrunable int

	// weights lists, per edge, the weight tensors WeightL1 averages over
	// (none for weightless operations), for Refresh.
	weights [][]*tensor.Tensor
}

// Refresh re-reads every edge's WeightL1 from the layers the graph was
// built from, with the expression FromEncoder uses. The structure and
// the geometry stay as built: they follow the layer shapes, which
// training does not change. So a graph refreshed after the weights
// moved equals a fresh FromEncoder of the same model, edge for edge.
func (g *Graph) Refresh() {
	for i, ws := range g.weights {
		if ws != nil {
			g.Edges[i].WeightL1 = meanAbs(ws)
		}
	}
}

// meanAbs is the mean |w| over the given tensors together.
func meanAbs(ws []*tensor.Tensor) float64 {
	var l1 float64
	n := 0
	for _, w := range ws {
		l1 += w.AbsSum()
		n += w.Len()
	}
	if n > 0 {
		l1 /= float64(n)
	}
	return l1
}

// FeaturesInto writes the edge's fixed-size feature vector into
// f[:FeatureDim]: a one-hot operation type followed by normalized
// geometry and cost descriptors. All entries are kept roughly in [0, 1]
// so the GNN trains stably.
func (e *Edge) FeaturesInto(f []float32) {
	f = f[:FeatureDim]
	clear(f)
	f[int(e.Op)] = 1
	i := int(numOpTypes)
	f[i+0] = float32(math.Log1p(float64(e.ParamCount)) / 20)
	f[i+1] = float32(math.Log1p(float64(e.FLOPs)) / 30)
	f[i+2] = float32(float64(e.InC) / 512)
	f[i+3] = float32(float64(e.OutC) / 512)
	f[i+4] = float32(float64(e.Kernel) / 7)
	f[i+5] = float32(float64(e.Stride) / 2)
	if e.PrunableIdx >= 0 {
		f[i+6] = 1
	}
	f[i+7] = float32(math.Tanh(e.WeightL1 * 5))
}

// builder tracks node allocation while walking the model.
type builder struct {
	g        *Graph
	prunable map[*nn.Conv2D]int
}

func (b *builder) node() int {
	id := b.g.NumNodes
	b.g.NumNodes++
	return id
}

// edge appends e, whose WeightL1 is the mean |w| over ws.
func (b *builder) edge(e Edge, ws ...*tensor.Tensor) {
	if len(ws) > 0 {
		e.WeightL1 = meanAbs(ws)
	} else {
		ws = nil
	}
	b.g.Edges = append(b.g.Edges, e)
	b.g.weights = append(b.g.weights, ws)
}

// FromEncoder extracts the computational graph of the model's encoder.
// Call after the model has run at least one forward pass so convolution
// geometry (and thus FLOPs) is populated; Describe() does this.
func FromEncoder(m *models.SplitModel) *Graph {
	m.Describe()
	b := &builder{g: &Graph{}, prunable: map[*nn.Conv2D]int{}}
	for i, c := range m.PrunableConvs() {
		b.prunable[c] = i
	}
	b.g.NumPrunable = len(b.prunable)
	in := b.node()
	b.walkSeq(m.Encoder, in)
	return b.g
}

// walkSeq threads the node chain through a sequential container and
// returns the output node.
func (b *builder) walkSeq(s *nn.Sequential, in int) int {
	cur := in
	for _, l := range s.Layers {
		cur = b.walkLayer(l, cur)
	}
	return cur
}

func (b *builder) walkLayer(l nn.Layer, in int) int {
	switch v := l.(type) {
	case *nn.Sequential:
		return b.walkSeq(v, in)
	case *nn.BasicBlock:
		return b.walkBlock(v, in)
	case *nn.Conv2D:
		out := b.node()
		pi := -1
		if idx, ok := b.prunable[v]; ok {
			pi = idx
		}
		b.edge(Edge{
			Src: in, Dst: out, Op: OpConv, PrunableIdx: pi,
			InC: v.InC, OutC: v.OutC, Kernel: v.K, Stride: v.Stride,
			ParamCount: nn.ParamCount(v.Params()), FLOPs: v.FLOPs(),
		}, v.Weight().W)
		return out
	case *nn.BatchNorm2D:
		out := b.node()
		var ws []*tensor.Tensor
		for _, p := range v.Params() {
			ws = append(ws, p.W)
		}
		b.edge(Edge{
			Src: in, Dst: out, Op: OpBatchNorm, PrunableIdx: -1,
			InC: v.C, OutC: v.C, ParamCount: 2 * v.C, FLOPs: v.FLOPs(),
		}, ws...)
		return out
	case *nn.ReLU:
		out := b.node()
		b.edge(Edge{Src: in, Dst: out, Op: OpReLU, PrunableIdx: -1, FLOPs: v.FLOPs()})
		return out
	case *nn.MaxPool2D:
		out := b.node()
		b.edge(Edge{Src: in, Dst: out, Op: OpMaxPool, PrunableIdx: -1, Kernel: v.K, FLOPs: v.FLOPs()})
		return out
	case *nn.GlobalAvgPool:
		out := b.node()
		b.edge(Edge{Src: in, Dst: out, Op: OpGlobalPool, PrunableIdx: -1, FLOPs: v.FLOPs()})
		return out
	case *nn.Flatten:
		out := b.node()
		b.edge(Edge{Src: in, Dst: out, Op: OpFlatten, PrunableIdx: -1})
		return out
	case *nn.Linear:
		out := b.node()
		b.edge(Edge{
			Src: in, Dst: out, Op: OpLinear, PrunableIdx: -1,
			InC: v.In, OutC: v.Out, ParamCount: nn.ParamCount(v.Params()),
			FLOPs: v.FLOPs(),
		}, v.Weight().W)
		return out
	default:
		// Unknown layers pass through without an edge.
		return in
	}
}

// walkBlock expands a residual basic block: main path conv→bn→relu→
// conv→bn, shortcut (identity or conv→bn), and an explicit Add edge
// merging both into the output node.
func (b *builder) walkBlock(blk *nn.BasicBlock, in int) int {
	conv1, conv2, sc := blk.Convs()
	subs := blk.SubLayers()
	// Main path: conv1, bn1, relu1, conv2, bn2 (first five sublayers).
	cur := in
	for _, l := range subs[:5] {
		cur = b.walkLayer(l, cur)
	}
	// Shortcut path.
	short := in
	if sc != nil {
		for _, l := range subs[5:] {
			short = b.walkLayer(l, short)
		}
	}
	out := b.node()
	b.edge(Edge{Src: cur, Dst: out, Op: OpAdd, PrunableIdx: -1, InC: conv2.OutC, OutC: conv2.OutC})
	b.edge(Edge{Src: short, Dst: out, Op: OpAdd, PrunableIdx: -1, InC: conv1.InC, OutC: conv2.OutC})
	return out
}
