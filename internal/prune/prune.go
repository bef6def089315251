// Package prune implements salient parameter selection — the mechanism
// SPATL uses both to cut communication (only salient encoder parameters
// travel, §IV-B/§IV-C1) and to accelerate local inference (the selection
// is a structured channel pruning, §V-D). Filters are ranked by L1
// magnitude within each prunable unit; a keep-ratio vector (the RL
// agent's action) determines how many survive. The package also provides
// the classic pruning baselines the paper compares against in Table IV
// (L1-uniform, SFP, FPGM, and a DSA-style sensitivity allocation) and the
// PPO pruning environment used to pre-train and fine-tune the agent.
package prune

import (
	"fmt"
	"math"
	"sync"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
)

// Mask records which output channels of one prunable unit survive.
type Mask struct {
	Keep []bool
	Kept int
}

// Frac returns the kept fraction.
func (m Mask) Frac() float64 {
	if len(m.Keep) == 0 {
		return 1
	}
	return float64(m.Kept) / float64(len(m.Keep))
}

// ChannelScores returns each output channel's L1 norm (the salience
// criterion used by the selection agent's action decoding).
func ChannelScores(c *nn.Conv2D) []float64 {
	return channelScoresInto(nil, c)
}

// channelScoresInto is ChannelScores into dst's array when it is large
// enough.
func channelScoresInto(dst []float64, c *nn.Conv2D) []float64 {
	w := c.Weight().W
	rows, cols := w.Dim(0), w.Dim(1)
	scores := resize(dst, rows)
	for r := 0; r < rows; r++ {
		var s float64
		for j := 0; j < cols; j++ {
			v := float64(w.Data[r*cols+j])
			s += math.Abs(v)
		}
		scores[r] = s
	}
	return scores
}

// MaskFromScores keeps the ceil(ratio·C) highest-scoring channels
// (always at least one). NaN scores are normalized to -Inf before
// ranking: NaN breaks scoreLess's total order (NaN compares unequal
// yet not greater, so two NaN channels would be mutually unordered and
// the selection would depend on partition internals) — normalized, a
// NaN channel is never salient unless the keep count forces it, and
// ties resolve by index as everywhere else.
func MaskFromScores(scores []float64, ratio float64) Mask {
	var m Mask
	maskFromScoresInto(&m, scores, nil, ratio, false)
	return m
}

// maskFromScoresInto is MaskFromScores into m, reusing m.Keep's array and
// order's (scratch, returned) when they are large enough. owned says the
// scores are the caller's scratch, normalized in place.
func maskFromScoresInto(m *Mask, scores []float64, order []int, ratio float64, owned bool) []int {
	n := len(scores)
	keep := int(math.Ceil(ratio * float64(n)))
	if keep < 1 {
		keep = 1
	}
	if keep > n {
		keep = n
	}
	for i, s := range scores {
		if math.IsNaN(s) {
			if !owned {
				scores = append([]float64(nil), scores...)
				owned = true
			}
			scores[i] = math.Inf(-1)
		}
	}
	order = resize(order, n)
	for i := range order {
		order[i] = i
	}
	topKSelect(order, scores, keep)
	m.Keep = resize(m.Keep, n)
	clear(m.Keep)
	for _, i := range order[:keep] {
		m.Keep[i] = true
	}
	m.Kept = keep
	return order
}

// resize returns s with length n, over s's array when it is large enough
// (contents unspecified) and a new one otherwise.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scoreLess reports whether channel a precedes channel b in the saliency
// order: higher score first, lower index breaking ties. Because every
// channel index is distinct the order is total, so the top-k set is
// unique — selection cannot depend on sort internals, and the quickselect
// below reproduces exactly what the stable descending sort it replaced
// selected.
func scoreLess(scores []float64, a, b int) bool {
	if scores[a] != scores[b] {
		return scores[a] > scores[b]
	}
	return a < b
}

// topKSelect partially partitions order (a permutation of channel
// indices) so its first k elements are the k channels ranked highest by
// scoreLess. Median-of-three Hoare quickselect with an insertion-sort
// cutoff: expected O(n) versus the O(n log n) full sort, with entirely
// deterministic pivot choices.
func topKSelect(order []int, scores []float64, k int) {
	lo, hi := 0, len(order)
	for {
		if k <= lo || k >= hi || hi-lo <= 1 {
			return
		}
		if hi-lo <= 16 {
			for i := lo + 1; i < hi; i++ {
				for j := i; j > lo && scoreLess(scores, order[j], order[j-1]); j-- {
					order[j], order[j-1] = order[j-1], order[j]
				}
			}
			return
		}
		mid := lo + (hi-lo)/2
		if scoreLess(scores, order[mid], order[lo]) {
			order[lo], order[mid] = order[mid], order[lo]
		}
		if scoreLess(scores, order[hi-1], order[lo]) {
			order[lo], order[hi-1] = order[hi-1], order[lo]
		}
		if scoreLess(scores, order[hi-1], order[mid]) {
			order[mid], order[hi-1] = order[hi-1], order[mid]
		}
		pivot := order[mid]
		i, j := lo, hi-1
		for i <= j {
			for scoreLess(scores, order[i], pivot) {
				i++
			}
			for scoreLess(scores, pivot, order[j]) {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		// order[lo:j+1] precede order[i:hi]; anything strictly between is
		// already in its final position.
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Selection is a complete salient-parameter selection over a model's
// encoder: per-unit channel masks plus the index ranges of the selected
// (salient) entries in the flat ScopeEncoder state vector. The ranges
// are what a SPATL client uploads alongside the values (eq. 12).
type Selection struct {
	Units  []models.PrunableUnit
	Masks  []Mask
	Ranges []comm.Range
	// StateLen is the full encoder state length the ranges index into.
	StateLen int

	// SelectInto's scratch: channel scores and their ranking.
	scores []float64
	order  []int
}

// salientPool recycles selectWithMasksInto's state-sized salience
// bitmaps, so a Selection a client keeps between rounds holds none.
var salientPool sync.Pool

// KeepFrac returns the fraction of encoder state elements selected.
func (s *Selection) KeepFrac() float64 {
	kept := 0
	for _, r := range s.Ranges {
		kept += int(r.Len)
	}
	return float64(kept) / float64(s.StateLen)
}

// Ratios returns the per-unit kept fractions.
func (s *Selection) Ratios() []float64 {
	out := make([]float64, len(s.Masks))
	for i, m := range s.Masks {
		out[i] = m.Frac()
	}
	return out
}

// Select builds the salient selection for the given per-unit keep
// ratios: within each prunable unit the top-L1 channels survive; every
// encoder state element not owned by a pruned channel is salient.
func Select(m *models.SplitModel, ratios []float64) *Selection {
	return SelectInto(new(Selection), m, ratios)
}

// SelectInto is Select refilling sel — its masks, ranges and scratch
// arrays reused — and returning it: a caller that selects every round
// holds one Selection, valid until its next SelectInto.
func SelectInto(sel *Selection, m *models.SplitModel, ratios []float64) *Selection {
	units := m.PrunableUnits()
	if len(ratios) != len(units) {
		panic(fmt.Sprintf("prune: %d ratios for %d prunable units", len(ratios), len(units)))
	}
	sel.Masks = resize(sel.Masks, len(units))
	for i, u := range units {
		sel.scores = channelScoresInto(sel.scores, u.Conv)
		sel.order = maskFromScoresInto(&sel.Masks[i], sel.scores, sel.order, ratios[i], true)
	}
	return selectWithMasksInto(sel, m, sel.Masks)
}

// SelectWithMasks builds a Selection from explicit per-unit masks.
func SelectWithMasks(m *models.SplitModel, masks []Mask) *Selection {
	return selectWithMasksInto(new(Selection), m, masks)
}

// selectWithMasksInto is SelectWithMasks refilling sel.
func selectWithMasksInto(sel *Selection, m *models.SplitModel, masks []Mask) *Selection {
	units := m.PrunableUnits()
	if len(masks) != len(units) {
		panic(fmt.Sprintf("prune: %d masks for %d prunable units", len(masks), len(units)))
	}
	total := m.StateLen(models.ScopeEncoder)
	sp, _ := salientPool.Get().(*[]bool)
	if sp == nil {
		sp = new([]bool)
	}
	defer salientPool.Put(sp)
	*sp = resize(*sp, total)
	salient := *sp
	for i := range salient {
		salient[i] = true
	}
	paramSeg, bnSeg := m.EncoderOffsets()

	markFalse := func(off, n int) {
		for i := off; i < off+n; i++ {
			salient[i] = false
		}
	}
	// Selection gates the filter weight tensors only: the per-channel
	// scalars (conv bias, BN affine and running statistics) always ship.
	// They are a negligible fraction of the payload — the paper's
	// "negligible burdens" — and keeping them synchronized lets the
	// global model's non-salient channels stay correctly normalized
	// instead of freezing at initialization statistics.
	_ = bnSeg
	for ui, u := range units {
		mask := masks[ui]
		w := u.Conv.Weight()
		wSeg := paramSeg[w.W]
		rowLen := w.W.Dim(1)
		var nextSeg models.Segment
		var nextRow, kk int
		if u.Next != nil {
			nw := u.Next.Weight()
			nextSeg = paramSeg[nw.W]
			nextRow = nw.W.Dim(1)
			kk = u.Next.K * u.Next.K
		}
		for ch, keep := range mask.Keep {
			if keep {
				continue
			}
			markFalse(wSeg.Off+ch*rowLen, rowLen)
			if u.Next != nil {
				// Input-channel column group ch of every output row.
				for r := 0; r < u.Next.OutC; r++ {
					markFalse(nextSeg.Off+r*nextRow+ch*kk, kk)
				}
			}
		}
	}

	sel.Units, sel.Masks, sel.StateLen, sel.Ranges = units, masks, total, sel.Ranges[:0]
	// Compress the salience bitmap into maximal ranges.
	i := 0
	for i < total {
		if !salient[i] {
			i++
			continue
		}
		j := i
		for j < total && salient[j] {
			j++
		}
		sel.Ranges = append(sel.Ranges, comm.Range{Start: uint32(i), Len: uint32(j - i)})
		i = j
	}
	return sel
}

// ZeroPruned permanently zeroes the pruned channels' parameters (conv
// rows, bias, BN affine) so the model behaves as the selected
// sub-network. This is the deployed form of a SPATL client's model: the
// selection both gates the upload and prunes local inference (§V-D).
func ZeroPruned(m *models.SplitModel, sel *Selection) {
	for ui, u := range sel.Units {
		mask := sel.Masks[ui]
		w := u.Conv.Weight().W
		rowLen := w.Dim(1)
		var bias []float32
		if ps := u.Conv.Params(); len(ps) > 1 {
			bias = ps[1].W.Data
		}
		var gamma, beta []float32
		if u.BN != nil {
			gamma = u.BN.Params()[0].W.Data
			beta = u.BN.Params()[1].W.Data
		}
		for ch, keep := range mask.Keep {
			if keep {
				continue
			}
			row := w.Data[ch*rowLen : (ch+1)*rowLen]
			for j := range row {
				row[j] = 0
			}
			if bias != nil {
				bias[ch] = 0
			}
			if gamma != nil {
				gamma[ch] = 0
				beta[ch] = 0
			}
		}
	}
}

// MaskedFLOPs returns the per-instance forward FLOPs of the selected
// sub-network and of the full model. Convolution costs scale with the
// kept output fraction and, for consumer convolutions, the kept input
// fraction; BatchNorm scales with its channel fraction; other layers are
// charged in full (conservative).
func MaskedFLOPs(m *models.SplitModel, masks []Mask) (pruned, total int64) {
	m.Describe()
	return maskedFLOPs(m, masks)
}

// maskedFLOPs is MaskedFLOPs over the geometry m's layers already hold:
// it only reads m. A layer's multipliers come from the units it belongs
// to, found by a scan over the few units, so a step builds no lookup.
func maskedFLOPs(m *models.SplitModel, masks []Mask) (pruned, total int64) {
	units := m.PrunableUnits()
	nn.Walk(m.Encoder, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2D:
			f := v.FLOPs()
			total += f
			mult := 1.0
			for i := range units { // kept output fraction
				if units[i].Conv == v {
					mult *= masks[i].Frac()
				}
			}
			for i := range units { // kept input fraction
				if units[i].Next == v {
					mult *= masks[i].Frac()
				}
			}
			pruned += int64(float64(f) * mult)
		case *nn.BatchNorm2D:
			f := v.FLOPs()
			total += f
			mult := 1.0
			for i := range units {
				if units[i].BN == v {
					mult = masks[i].Frac()
				}
			}
			pruned += int64(float64(f) * mult)
		case *nn.Sequential, *nn.BasicBlock:
			// Composites are expanded by Walk; skip their aggregate FLOPs.
		default:
			f := l.FLOPs()
			total += f
			pruned += f
		}
	})
	pf := m.Predictor.FLOPs()
	total += pf
	pruned += pf
	return pruned, total
}
