package hetero

import (
	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/prune"
	"spatl/internal/tensor"
)

// SliceSpec is the deterministic width slice of a full-width model: the
// index ranges of the ScopeAll flat state a width-w client trains and
// uploads. The slice is a function of (architecture, width) alone — no
// weights, no randomness — so the server and every client derive the
// identical spec independently, and the server can validate an upload's
// declared ranges against its own copy before folding.
//
// Invariants (pinned by the slice tests):
//
//   - Channel-prefix selection: within each prunable unit the first
//     ceil(w·C) output channels survive — prune.MaskFromScores over the
//     descending index ramp, so ties and rounding resolve exactly as in
//     every other selection in the repo. A narrower width's channel set
//     is a subset of a wider width's (HeteroFL's nesting property).
//   - Only filter weights are gated: dropping channel ch removes row ch
//     of the unit's conv weight and input-column-group ch of the
//     consumer conv. Per-channel scalars (conv bias, BN affine) and BN
//     running statistics always ship — they are a negligible fraction
//     of the payload and keeping them synchronized keeps every cluster
//     model's non-covered channels correctly normalized.
//   - Ranges are sorted, non-overlapping, maximal — comm.Sparse's
//     Validate accepts every SliceSpec.
//   - Width ≥ 1, or an architecture with no prunable units (mlp),
//     yields full coverage: a single range over the whole state.
type SliceSpec struct {
	Width float64
	Milli uint16
	// StateLen is the full ScopeAll state length the ranges index into.
	StateLen int
	// Ranges covers the trained indices, sorted maximal runs.
	Ranges []comm.Range
}

// NewSliceSpec derives the width-w slice of m's full-width state.
func NewSliceSpec(m *models.SplitModel, width float64) *SliceSpec {
	total := m.StateLen(models.ScopeAll)
	s := &SliceSpec{Width: width, Milli: WidthMilli(width), StateLen: total}
	units := m.PrunableUnits()
	if width >= 1 || len(units) == 0 {
		s.Ranges = []comm.Range{{Start: 0, Len: uint32(total)}}
		return s
	}

	covered := make([]bool, total)
	for i := range covered {
		covered[i] = true
	}
	// Prunable units live in the encoder, whose parameters lead the
	// ScopeAll state at their ScopeEncoder offsets — the layout the state
	// codec and prune.SelectWithMasks already index by weight tensor.
	encSeg, _ := m.EncoderOffsets()
	offsetOf := func(p *nn.Param) int {
		seg, ok := encSeg[p.W]
		if !ok {
			panic("hetero: prunable conv weight " + p.Name + " is not an encoder parameter")
		}
		return seg.Off
	}
	markFalse := func(off, n int) {
		for i := off; i < off+n; i++ {
			covered[i] = false
		}
	}
	for _, u := range units {
		w := u.Conv.Weight()
		mask := prefixMask(w.W.Dim(0), width)
		wSeg := offsetOf(w)
		rowLen := w.W.Dim(1)
		var nextOff, nextRow, kk, outC int
		if u.Next != nil {
			nw := u.Next.Weight()
			nextOff = offsetOf(nw)
			nextRow = nw.W.Dim(1)
			kk = u.Next.K * u.Next.K
			outC = u.Next.OutC
		}
		for ch, keep := range mask.Keep {
			if keep {
				continue
			}
			markFalse(wSeg+ch*rowLen, rowLen)
			if u.Next != nil {
				// Input-channel column group ch of every output row.
				for r := 0; r < outC; r++ {
					markFalse(nextOff+r*nextRow+ch*kk, kk)
				}
			}
		}
	}

	// Compress the coverage bitmap into maximal ranges.
	i := 0
	for i < total {
		if !covered[i] {
			i++
			continue
		}
		j := i
		for j < total && covered[j] {
			j++
		}
		s.Ranges = append(s.Ranges, comm.Range{Start: uint32(i), Len: uint32(j - i)})
		i = j
	}
	return s
}

// prefixMask keeps the first ceil(w·C) of C channels, routed through
// prune.MaskFromScores over a descending index ramp so the keep-count
// rounding (and the at-least-one floor) is exactly the selection
// machinery's.
func prefixMask(c int, width float64) prune.Mask {
	scores := make([]float64, c)
	for i := range scores {
		scores[i] = float64(c - i)
	}
	return prune.MaskFromScores(scores, width)
}

// Count returns the number of state elements the slice covers.
func (s *SliceSpec) Count() int {
	n := 0
	for _, r := range s.Ranges {
		n += int(r.Len)
	}
	return n
}

// Full reports whether the slice covers the entire state.
func (s *SliceSpec) Full() bool {
	return len(s.Ranges) == 1 && s.Ranges[0].Start == 0 && int(s.Ranges[0].Len) == s.StateLen
}

// Complement returns the maximal runs of the state NOT covered by the
// slice — what a client freezes during local training.
func (s *SliceSpec) Complement() []comm.Range {
	return comm.ComplementRanges(s.Ranges, s.StateLen)
}

// RangesEqual reports whether the uploaded ranges match the spec's —
// the server-side validation before a mismatched upload would corrupt
// the participation weights.
func (s *SliceSpec) RangesEqual(ranges []comm.Range) bool {
	if len(ranges) != len(s.Ranges) {
		return false
	}
	for i, r := range ranges {
		if r != s.Ranges[i] {
			return false
		}
	}
	return true
}

// foldRanges adds w·vals into acc and w into wsum over the covered
// runs — one upload's contribution to a cluster's per-index
// participation-weighted accumulators. Chunks are index-disjoint, so
// the result is bitwise identical at any GOMAXPROCS; with a single
// full-coverage range the VecAccumScaled call is exactly the FedAvg
// fold.
func foldRanges(acc, wsum []float64, vals []float32, ranges []comm.Range, w float64) {
	off := 0
	for _, r := range ranges {
		n := int(r.Len)
		seg := acc[r.Start : int(r.Start)+n]
		ws := wsum[r.Start : int(r.Start)+n]
		v := vals[off : off+n]
		tensor.Parallel(n, func(lo, hi int) {
			tensor.VecAccumScaled(seg[lo:hi], v[lo:hi], w)
			for j := lo; j < hi; j++ {
				ws[j] += w
			}
		})
		off += n
	}
}
