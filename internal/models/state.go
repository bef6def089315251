package models

import (
	"fmt"

	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// Scope selects which part of a SplitModel a state vector covers.
type Scope int

const (
	// ScopeAll covers encoder and predictor — what the dense baseline
	// algorithms (FedAvg, FedProx, FedNova, SCAFFOLD) communicate.
	ScopeAll Scope = iota
	// ScopeEncoder covers only the shared encoder — what SPATL
	// communicates (§IV-A).
	ScopeEncoder
)

// Segment locates one named component inside a flat state vector.
type Segment struct {
	Name     string
	Off, Len int
}

// StateSpec describes the layout of a model's flat state vector: all
// trainable parameters in Params order, followed by BatchNorm running
// means and variances in layer order. BN statistics are part of the
// state (they must travel with the model for eval-mode inference) but
// are not touched by optimizers.
type StateSpec struct {
	Segments []Segment
	Total    int
}

// Segment returns the segment with the given name.
func (s StateSpec) Segment(name string) (Segment, bool) {
	for _, seg := range s.Segments {
		if seg.Name == name {
			return seg, true
		}
	}
	return Segment{}, false
}

// stateLayout is one walk of an (Encoder, Predictor) pair: the per-scope
// parameter and BatchNorm lists and the flat state length. Layer
// structure is fixed once a model is built, so the walk — which names
// every parameter with fmt.Sprintf — is taken once and reused by every
// StateLen/StateInto/SetState/Params call of every round.
type stateLayout struct {
	enc, pred  *nn.Sequential       // the identities the walk was taken of
	params     [2][]*nn.Param       // indexed by Scope; cap-clipped
	predParams []*nn.Param          // cap-clipped
	bns        [2][]*nn.BatchNorm2D // indexed by Scope, stable layer order
	total      [2]int               // flat state length per scope
	units      []PrunableUnit       // cap-clipped
	encParams  map[*tensor.Tensor]Segment
	encBNStats map[*nn.BatchNorm2D][2]Segment
}

// layout returns the cached walk, taking it on first use and again
// whenever Encoder or Predictor has been replaced — the cache is keyed
// on their identities, so Build, prune.Extract and any code assembling a
// SplitModel by hand need no invalidation call. Concurrent first calls
// each take an equivalent walk; the last store wins.
func (m *SplitModel) layout() *stateLayout {
	if l := m.cached.Load(); l != nil && l.enc == m.Encoder && l.pred == m.Predictor {
		return l
	}
	l := &stateLayout{enc: m.Encoder, pred: m.Predictor}
	encP := m.Encoder.Params()
	nEnc := len(encP)
	all := append(encP, m.Predictor.Params()...)
	// Cap-clipped views of one backing array: a caller appending to a
	// returned list reallocates instead of writing into its neighbour.
	l.params[ScopeAll] = all[:len(all):len(all)]
	l.params[ScopeEncoder] = all[:nEnc:nEnc]
	l.predParams = all[nEnc:len(all):len(all)]
	collect := func(root nn.Layer, bns []*nn.BatchNorm2D) []*nn.BatchNorm2D {
		nn.Walk(root, func(layer nn.Layer) {
			if bn, ok := layer.(*nn.BatchNorm2D); ok {
				bns = append(bns, bn)
			}
		})
		return bns
	}
	encBNs := collect(m.Encoder, nil)
	encBNs = encBNs[:len(encBNs):len(encBNs)]
	l.bns[ScopeEncoder] = encBNs
	l.bns[ScopeAll] = collect(m.Predictor, encBNs)
	for scope := range l.total {
		n := nn.ParamCount(l.params[scope])
		for _, bn := range l.bns[scope] {
			n += 2 * bn.C
		}
		l.total[scope] = n
	}
	units := m.prunableUnits()
	l.units = units[:len(units):len(units)]
	l.encParams, l.encBNStats = encoderOffsets(l.params[ScopeEncoder], encBNs)
	m.cached.Store(l)
	return l
}

// checkScope panics on a Scope value that names no part of the model.
func checkScope(scope Scope) {
	if scope != ScopeAll && scope != ScopeEncoder {
		panic(fmt.Sprintf("models: unknown scope %d", scope))
	}
}

// scopeParams returns the trainable parameters covered by scope. The
// list is the cache's: read it, do not store into it.
func (m *SplitModel) scopeParams(scope Scope) []*nn.Param {
	checkScope(scope)
	return m.layout().params[scope]
}

// scopeBNs returns the BatchNorm layers covered by scope in stable order.
func (m *SplitModel) scopeBNs(scope Scope) []*nn.BatchNorm2D {
	checkScope(scope)
	return m.layout().bns[scope]
}

// StateSpec computes the layout of the scope's flat state vector.
func (m *SplitModel) StateSpec(scope Scope) StateSpec {
	var spec StateSpec
	off := 0
	for _, p := range m.scopeParams(scope) {
		spec.Segments = append(spec.Segments, Segment{Name: p.Name, Off: off, Len: p.W.Len()})
		off += p.W.Len()
	}
	for i, bn := range m.scopeBNs(scope) {
		spec.Segments = append(spec.Segments, Segment{Name: fmt.Sprintf("bn%d.rmean", i), Off: off, Len: bn.C})
		off += bn.C
		spec.Segments = append(spec.Segments, Segment{Name: fmt.Sprintf("bn%d.rvar", i), Off: off, Len: bn.C})
		off += bn.C
	}
	spec.Total = off
	return spec
}

// StateLen returns the length of the scope's flat state vector: a cached
// total, O(1) and allocation-free after the first call.
func (m *SplitModel) StateLen(scope Scope) int {
	checkScope(scope)
	return m.layout().total[scope]
}

// State serializes the scope into a fresh flat vector.
func (m *SplitModel) State(scope Scope) []float32 {
	return m.StateInto(scope, nil)
}

// StateInto serializes the scope into dst, reusing its backing array when
// the capacity suffices (so round loops can snapshot state into pooled
// buffers). Returns the filled slice.
func (m *SplitModel) StateInto(scope Scope, dst []float32) []float32 {
	n := m.StateLen(scope)
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float32, n)
	}
	m.EachStateRange(scope, 0, n, func(off int, span []float32) { copy(dst[off:], span) })
	return dst
}

// SetState writes a flat vector produced by State back into the model.
func (m *SplitModel) SetState(scope Scope, flat []float32) {
	if want := m.StateLen(scope); len(flat) != want {
		panic(fmt.Sprintf("models: SetState length %d, want %d", len(flat), want))
	}
	m.EachStateRange(scope, 0, len(flat), func(off int, span []float32) { copy(span, flat[off:]) })
}

// EachStateRange calls fn, in State order, on each contiguous span of
// the model's own memory that holds part of the scope's flat state
// [lo, hi): off is the span's offset in the flat state, and fn may read
// or write the span. Reading every span of [0, StateLen) is StateInto
// with no copy, writing them is SetState. It allocates nothing, and
// calls over disjoint ranges may run at once.
func (m *SplitModel) EachStateRange(scope Scope, lo, hi int, fn func(off int, span []float32)) {
	checkScope(scope)
	l := m.layout()
	if lo < 0 || lo > hi || hi > l.total[scope] {
		panic(fmt.Sprintf("models: state range [%d, %d) of %d", lo, hi, l.total[scope]))
	}
	off := 0
	visit := func(s []float32) {
		if a, b := max(lo, off), min(hi, off+len(s)); a < b {
			fn(a, s[a-off:b-off])
		}
		off += len(s)
	}
	for _, p := range l.params[scope] {
		if off >= hi {
			return
		}
		visit(p.W.Data)
	}
	for _, bn := range l.bns[scope] {
		if off >= hi {
			return
		}
		visit(bn.RunMean)
		visit(bn.RunVar)
	}
}

// PrunableUnit groups a prunable convolution with the structures its
// output channels flow through: the BatchNorm normalizing them (nil when
// absent) and the consumer convolution whose input channels align (nil
// when the output feeds something that cannot be sliced). Pruning — and
// SPATL's salient-parameter selection — operates on these units: dropping
// output channel k of Conv removes row k of Conv's weight, entry k of the
// BN affine/statistics, and the k-th input-channel column group of Next.
type PrunableUnit struct {
	Conv *nn.Conv2D
	BN   *nn.BatchNorm2D
	Next *nn.Conv2D
}

// PrunableUnits enumerates the encoder's prunable units: every
// basic-block's internal conv1 for ResNets (residual-safe), all VGG convs
// except the final one (whose width the shared predictor input depends
// on), and CNN2's first conv. The list is taken with the state layout
// and cached with it: read it, do not store into it.
func (m *SplitModel) PrunableUnits() []PrunableUnit { return m.layout().units }

func (m *SplitModel) prunableUnits() []PrunableUnit {
	var units []PrunableUnit
	switch m.Spec.Arch {
	case "resnet20", "resnet32", "resnet56", "resnet18":
		nn.Walk(m.Encoder, func(l nn.Layer) {
			if b, ok := l.(*nn.BasicBlock); ok {
				c1, c2, _ := b.Convs()
				var bn1 *nn.BatchNorm2D
				// bn1 is the second sublayer of the block's main path.
				if bn, ok := b.SubLayers()[1].(*nn.BatchNorm2D); ok {
					bn1 = bn
				}
				units = append(units, PrunableUnit{Conv: c1, BN: bn1, Next: c2})
			}
		})
	case "vgg11", "cnn2":
		// Chain architectures: pair each conv with its following BN (if
		// any) and the next conv in the chain.
		var convs []*nn.Conv2D
		bnAfter := map[*nn.Conv2D]*nn.BatchNorm2D{}
		var lastConv *nn.Conv2D
		nn.Walk(m.Encoder, func(l nn.Layer) {
			switch v := l.(type) {
			case *nn.Conv2D:
				convs = append(convs, v)
				lastConv = v
			case *nn.BatchNorm2D:
				if lastConv != nil {
					bnAfter[lastConv] = v
					lastConv = nil
				}
			}
		})
		for i := 0; i+1 < len(convs); i++ {
			units = append(units, PrunableUnit{Conv: convs[i], BN: bnAfter[convs[i]], Next: convs[i+1]})
		}
	}
	return units
}

// PrunableConvs returns just the convolutions of PrunableUnits, in order.
func (m *SplitModel) PrunableConvs() []*nn.Conv2D {
	units := m.PrunableUnits()
	convs := make([]*nn.Conv2D, len(units))
	for i, u := range units {
		convs[i] = u.Conv
	}
	return convs
}

// EncoderOffsets maps each encoder component to its Segment inside the
// ScopeEncoder state vector: trainable parameters are keyed by their
// weight tensor; BatchNorm running statistics are returned separately in
// layer order (mean segment, variance segment per BN). The maps are
// taken with the state layout and cached with it: read them, do not
// store into them.
func (m *SplitModel) EncoderOffsets() (params map[*tensor.Tensor]Segment, bnStats map[*nn.BatchNorm2D][2]Segment) {
	l := m.layout()
	return l.encParams, l.encBNStats
}

// encoderOffsets builds EncoderOffsets' maps over the encoder's
// parameters and BatchNorm layers.
func encoderOffsets(encParams []*nn.Param, encBNs []*nn.BatchNorm2D) (params map[*tensor.Tensor]Segment, bnStats map[*nn.BatchNorm2D][2]Segment) {
	params = map[*tensor.Tensor]Segment{}
	bnStats = map[*nn.BatchNorm2D][2]Segment{}
	off := 0
	for _, p := range encParams {
		params[p.W] = Segment{Name: p.Name, Off: off, Len: p.W.Len()}
		off += p.W.Len()
	}
	for _, bn := range encBNs {
		mean := Segment{Name: "rmean", Off: off, Len: bn.C}
		off += bn.C
		vari := Segment{Name: "rvar", Off: off, Len: bn.C}
		off += bn.C
		bnStats[bn] = [2]Segment{mean, vari}
	}
	return params, bnStats
}
