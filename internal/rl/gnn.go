// Package rl implements SPATL's salient-parameter selection agent: a
// graph-neural-network encoder over the model's computational graph
// followed by MLP actor/critic heads, trained with proximal policy
// optimization (PPO, §IV-B). The GNN embeds network topology, which is
// what makes the agent transferable across architectures (pre-train on
// ResNet-56 pruning, fine-tune only the MLP head on each client).
//
// The message-passing forward/backward passes are written by hand on top
// of internal/nn layers — each Linear/ReLU instance is used exactly once
// per forward pass, so the standard layer-cache backprop applies.
package rl

import (
	"math/rand"

	"spatl/internal/graph"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// GNN is a message-passing graph encoder: node states are initialized
// from incident-edge features, then refined for a fixed number of rounds
// by gathering neighbor messages along edges (both directions).
type GNN struct {
	Dim    int
	Rounds int

	init  *nn.Linear
	initR *nn.ReLU
	msg   []*nn.Linear
	msgR  []*nn.ReLU
	upd   []*nn.Linear
	updR  []*nn.ReLU

	cache *gnnCache // forward caches, refilled by every Forward
}

// gnnCache holds one Forward's graph-derived lists and activations for
// Backward. It lives as long as the GNN: every Forward refills it — the
// lists appended over their arrays, the tensors through zeroed — so a
// Forward after the first on a graph of the same size allocates nothing,
// and one on another graph computes what a fresh GNN's would.
type gnnCache struct {
	g       *graph.Graph
	feat    *tensor.Tensor   // (E, F)
	msgFrom []int            // message source node per directed message
	msgTo   []int            // message target node per directed message
	msgEdge []int            // underlying edge per directed message
	degIn   []float32        // messages received per node
	incDeg  []float32        // incident edges per node (for init mean)
	x       *tensor.Tensor   // (N, F) node init input
	hs      []*tensor.Tensor // node states per round (the update layers' outputs)
	gathers []*tensor.Tensor // gathered [h_from ; f_e] per round
	aggs    []*tensor.Tensor // aggregated messages per round
	cats    []*tensor.Tensor // [h ; agg] per round
	msgOut  []*tensor.Tensor // per-round message activations (E2, D)

	dh, dagg, dmout *tensor.Tensor // Backward's per-round gradients
}

// zeroed is tensor.Reuse with the array cleared: the cache's stand-in
// for tensor.New, for buffers that accumulate or are padded.
func zeroed(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	t = tensor.Reuse(t, shape...)
	clear(t.Data)
	return t
}

// NewGNN constructs a GNN with hidden dimension dim and the given number
// of message-passing rounds.
func NewGNN(dim, rounds int, rng *rand.Rand) *GNN {
	g := &GNN{Dim: dim, Rounds: rounds, cache: &gnnCache{}}
	g.init = nn.NewLinear("gnn.init", graph.FeatureDim, dim, rng)
	g.initR = nn.NewReLU("gnn.init.relu")
	for t := 0; t < rounds; t++ {
		g.msg = append(g.msg, nn.NewLinear("gnn.msg", dim+graph.FeatureDim, dim, rng))
		g.msgR = append(g.msgR, nn.NewReLU("gnn.msg.relu"))
		g.upd = append(g.upd, nn.NewLinear("gnn.upd", 2*dim, dim, rng))
		g.updR = append(g.updR, nn.NewReLU("gnn.upd.relu"))
	}
	c := g.cache
	c.gathers = make([]*tensor.Tensor, rounds)
	c.aggs = make([]*tensor.Tensor, rounds)
	c.cats = make([]*tensor.Tensor, rounds)
	c.msgOut = make([]*tensor.Tensor, rounds)
	return g
}

// Params returns all trainable GNN parameters.
func (g *GNN) Params() []*nn.Param {
	ps := g.init.Params()
	for t := 0; t < g.Rounds; t++ {
		ps = append(ps, g.msg[t].Params()...)
		ps = append(ps, g.upd[t].Params()...)
	}
	return ps
}

// Forward embeds the graph, returning node states H of shape (N, Dim).
// H is the GNN's own and valid until its next Forward.
func (g *GNN) Forward(gr *graph.Graph) *tensor.Tensor {
	c := g.cache
	c.g = gr
	e := len(gr.Edges)
	c.feat = zeroed(c.feat, max(e, 1), graph.FeatureDim)
	for i := range gr.Edges {
		gr.Edges[i].FeaturesInto(c.feat.Data[i*graph.FeatureDim:])
	}
	// Directed message list: both directions of every edge.
	c.msgFrom, c.msgTo, c.msgEdge = c.msgFrom[:0], c.msgTo[:0], c.msgEdge[:0]
	for i, ed := range gr.Edges {
		c.msgFrom = append(c.msgFrom, ed.Src, ed.Dst)
		c.msgTo = append(c.msgTo, ed.Dst, ed.Src)
		c.msgEdge = append(c.msgEdge, i, i)
	}
	n := gr.NumNodes
	c.degIn = resize(c.degIn, n)
	clear(c.degIn)
	for _, t := range c.msgTo {
		c.degIn[t]++
	}
	c.incDeg = resize(c.incDeg, n)
	clear(c.incDeg)
	for _, ed := range gr.Edges {
		c.incDeg[ed.Src]++
		c.incDeg[ed.Dst]++
	}

	// Node init: mean of incident edge features through a linear+ReLU.
	c.x = zeroed(c.x, n, graph.FeatureDim)
	x := c.x
	for i, ed := range gr.Edges {
		f := c.feat.Data[i*graph.FeatureDim : (i+1)*graph.FeatureDim]
		for _, v := range [2]int{ed.Src, ed.Dst} {
			row := x.Data[v*graph.FeatureDim : (v+1)*graph.FeatureDim]
			for j, fv := range f {
				row[j] += fv
			}
		}
	}
	for v := 0; v < n; v++ {
		if c.incDeg[v] > 0 {
			inv := 1 / c.incDeg[v]
			row := x.Data[v*graph.FeatureDim : (v+1)*graph.FeatureDim]
			for j := range row {
				row[j] *= inv
			}
		}
	}
	h := g.initR.Forward(g.init.Forward(x, true), true)
	c.hs = append(c.hs[:0], h)

	e2 := len(c.msgFrom)
	for t := 0; t < g.Rounds; t++ {
		// Gather [h_from ; f_e] for every directed message.
		c.gathers[t] = zeroed(c.gathers[t], max(e2, 1), g.Dim+graph.FeatureDim)
		gat := c.gathers[t]
		for m := 0; m < e2; m++ {
			row := gat.Data[m*(g.Dim+graph.FeatureDim):]
			copy(row[:g.Dim], h.Data[c.msgFrom[m]*g.Dim:(c.msgFrom[m]+1)*g.Dim])
			ei := c.msgEdge[m]
			copy(row[g.Dim:g.Dim+graph.FeatureDim], c.feat.Data[ei*graph.FeatureDim:(ei+1)*graph.FeatureDim])
		}
		mout := g.msgR[t].Forward(g.msg[t].Forward(gat, true), true)
		c.msgOut[t] = mout

		// Mean-aggregate messages at target nodes.
		c.aggs[t] = zeroed(c.aggs[t], n, g.Dim)
		agg := c.aggs[t]
		for m := 0; m < e2; m++ {
			to := c.msgTo[m]
			src := mout.Data[m*g.Dim : (m+1)*g.Dim]
			dst := agg.Data[to*g.Dim : (to+1)*g.Dim]
			for j, v := range src {
				dst[j] += v
			}
		}
		for v := 0; v < n; v++ {
			if c.degIn[v] > 0 {
				inv := 1 / c.degIn[v]
				row := agg.Data[v*g.Dim : (v+1)*g.Dim]
				for j := range row {
					row[j] *= inv
				}
			}
		}

		// Update: h ← ReLU(W·[h ; agg]).
		c.cats[t] = zeroed(c.cats[t], n, 2*g.Dim)
		cat := c.cats[t]
		for v := 0; v < n; v++ {
			copy(cat.Data[v*2*g.Dim:], h.Data[v*g.Dim:(v+1)*g.Dim])
			copy(cat.Data[v*2*g.Dim+g.Dim:], agg.Data[v*g.Dim:(v+1)*g.Dim])
		}
		h = g.updR[t].Forward(g.upd[t].Forward(cat, true), true)
		c.hs = append(c.hs, h)
	}
	return h
}

// Backward propagates dH (gradient w.r.t. the final node states) through
// the message-passing stack, accumulating parameter gradients.
func (g *GNN) Backward(dH *tensor.Tensor) {
	c := g.cache
	if c.g == nil {
		panic("rl: GNN.Backward before Forward")
	}
	n := c.g.NumNodes
	e2 := len(c.msgFrom)
	for t := g.Rounds - 1; t >= 0; t-- {
		dcat := g.upd[t].Backward(g.updR[t].Backward(dH))
		// Split concat gradient into dh (previous state) and dagg. dH is
		// read by now, so dh may be the array the round after wrote.
		c.dh = zeroed(c.dh, n, g.Dim)
		c.dagg = zeroed(c.dagg, n, g.Dim)
		dh, dagg := c.dh, c.dagg
		for v := 0; v < n; v++ {
			copy(dh.Data[v*g.Dim:(v+1)*g.Dim], dcat.Data[v*2*g.Dim:v*2*g.Dim+g.Dim])
			copy(dagg.Data[v*g.Dim:(v+1)*g.Dim], dcat.Data[v*2*g.Dim+g.Dim:(v+1)*2*g.Dim])
		}
		// Backward through mean aggregation: each message receives
		// dagg[to]/deg[to].
		c.dmout = zeroed(c.dmout, max(e2, 1), g.Dim)
		dmout := c.dmout
		for m := 0; m < e2; m++ {
			to := c.msgTo[m]
			inv := float32(0)
			if c.degIn[to] > 0 {
				inv = 1 / c.degIn[to]
			}
			src := dagg.Data[to*g.Dim : (to+1)*g.Dim]
			dst := dmout.Data[m*g.Dim : (m+1)*g.Dim]
			for j, v := range src {
				dst[j] = v * inv
			}
		}
		dgat := g.msg[t].Backward(g.msgR[t].Backward(dmout))
		// Scatter the h_from part of the gather gradient back to nodes.
		for m := 0; m < e2; m++ {
			from := c.msgFrom[m]
			row := dgat.Data[m*(g.Dim+graph.FeatureDim):]
			dst := dh.Data[from*g.Dim : (from+1)*g.Dim]
			for j := 0; j < g.Dim; j++ {
				dst[j] += row[j]
			}
		}
		dH = dh
	}
	g.init.Backward(g.initR.Backward(dH))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
