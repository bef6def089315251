package prune

import (
	"math"
	"math/rand"

	"spatl/internal/data"
	"spatl/internal/eval"
	"spatl/internal/models"
	"spatl/internal/nn"
)

// L1Masks prunes every unit to the same keep ratio using L1-magnitude
// ranking — the classic uniform magnitude baseline.
func L1Masks(m *models.SplitModel, ratio float64) []Mask {
	units := m.PrunableUnits()
	masks := make([]Mask, len(units))
	for i, u := range units {
		masks[i] = MaskFromScores(ChannelScores(u.Conv), ratio)
	}
	return masks
}

// FPGMMasks ranks filters by their total distance to the other filters
// in the layer (filters near the geometric median are redundant — He et
// al., CVPR'19) and prunes the most redundant ones at a uniform ratio.
func FPGMMasks(m *models.SplitModel, ratio float64) []Mask {
	units := m.PrunableUnits()
	masks := make([]Mask, len(units))
	for i, u := range units {
		w := u.Conv.Weight().W
		rows, cols := w.Dim(0), w.Dim(1)
		scores := make([]float64, rows)
		for a := 0; a < rows; a++ {
			var total float64
			ra := w.Data[a*cols : (a+1)*cols]
			for b := 0; b < rows; b++ {
				if a == b {
					continue
				}
				rb := w.Data[b*cols : (b+1)*cols]
				var d float64
				for j := range ra {
					diff := float64(ra[j] - rb[j])
					d += diff * diff
				}
				total += math.Sqrt(d)
			}
			scores[a] = total // far from the median ⇒ informative ⇒ keep
		}
		masks[i] = MaskFromScores(scores, ratio)
	}
	return masks
}

// SFP implements soft filter pruning (He et al., IJCAI'18): the model
// trains for several epochs, and after every epoch the lowest-L2 filters
// of each unit are softly zeroed but remain trainable so they can
// recover. The final mask is returned alongside the trained model state.
func SFP(m *models.SplitModel, train *data.Dataset, ratio float64, epochs int, lr float64, rng *rand.Rand) []Mask {
	params := m.Params()
	opt := nn.NewSGD(params, lr, 0.9, 0)
	units := m.PrunableUnits()
	var masks []Mask
	for e := 0; e < epochs; e++ {
		for _, idx := range train.Batches(rng, 32) {
			x, y := train.Batch(idx)
			nn.ZeroGrad(params)
			out := m.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(out, y)
			m.Backward(grad)
			opt.Step()
		}
		// Soft-prune: zero the weakest filters (L2) but keep training them.
		masks = masks[:0]
		for _, u := range units {
			w := u.Conv.Weight().W
			rows, cols := w.Dim(0), w.Dim(1)
			scores := make([]float64, rows)
			for r := 0; r < rows; r++ {
				var s float64
				for j := 0; j < cols; j++ {
					v := float64(w.Data[r*cols+j])
					s += v * v
				}
				scores[r] = s
			}
			mask := MaskFromScores(scores, ratio)
			for ch, keep := range mask.Keep {
				if keep {
					continue
				}
				row := w.Data[ch*cols : (ch+1)*cols]
				for j := range row {
					row[j] = 0
				}
			}
			masks = append(masks, mask)
		}
	}
	return masks
}

// DSAMasks performs a differentiable-sparsity-allocation-style budget
// split: each unit's sensitivity is probed by pruning it alone to a
// probe ratio and measuring the validation accuracy drop; keep ratios
// are then allocated so sensitive layers keep more channels, scaled
// until the analytic FLOPs budget is met.
func DSAMasks(m *models.SplitModel, val *data.Dataset, flopsBudget float64) []Mask {
	units := m.PrunableUnits()
	base := eval.Accuracy(m, val, 64)
	sens := make([]float64, len(units))
	ws := newWorkspace(m)
	for i := range units {
		probe := make([]float64, len(units))
		for j := range probe {
			probe[j] = 1
		}
		probe[i] = 0.5
		acc := eval.Accuracy(ws.extract(m, Select(m, probe)), val, 64)
		sens[i] = math.Max(0, base-acc)
	}
	// Normalize sensitivities to [0,1]; allocate keep = lo + (1-lo)·s.
	maxS := 0.0
	for _, s := range sens {
		if s > maxS {
			maxS = s
		}
	}
	ratios := make([]float64, len(units))
	// Binary-search a floor so that the analytic FLOPs ratio meets the
	// budget.
	lo, hi := 0.05, 1.0
	for iter := 0; iter < 25; iter++ {
		mid := (lo + hi) / 2
		for i := range ratios {
			s := 0.0
			if maxS > 0 {
				s = sens[i] / maxS
			}
			ratios[i] = mid + (1-mid)*s
		}
		sel := Select(m, ratios)
		pr, tot := MaskedFLOPs(m, sel.Masks)
		if float64(pr)/float64(tot) > flopsBudget {
			hi = mid
		} else {
			lo = mid
		}
	}
	for i := range ratios {
		s := 0.0
		if maxS > 0 {
			s = sens[i] / maxS
		}
		ratios[i] = lo + (1-lo)*s
	}
	return Select(m, ratios).Masks
}

// FineTune retrains the model for the given epochs while pinning pruned
// channels to zero (weights zeroed after every step), recovering accuracy
// of the selected sub-network.
func FineTune(m *models.SplitModel, sel *Selection, train *data.Dataset, epochs int, lr float64, rng *rand.Rand) {
	params := m.Params()
	opt := nn.NewSGD(params, lr, 0.9, 0)
	pin := func() {
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
	pin()
	for e := 0; e < epochs; e++ {
		for _, idx := range train.Batches(rng, 32) {
			x, y := train.Batch(idx)
			nn.ZeroGrad(params)
			out := m.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(out, y)
			m.Backward(grad)
			opt.Step()
			pin()
		}
	}
}

// UniformRatiosForBudget searches the uniform keep ratio whose analytic
// FLOPs ratio best matches the budget — used to put baselines and the
// agent at matched budgets for Table IV.
func UniformRatiosForBudget(m *models.SplitModel, flopsBudget float64) float64 {
	lo, hi := 0.05, 1.0
	for iter := 0; iter < 25; iter++ {
		mid := (lo + hi) / 2
		masks := L1Masks(m, mid)
		pr, tot := MaskedFLOPs(m, masks)
		if float64(pr)/float64(tot) > flopsBudget {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}
