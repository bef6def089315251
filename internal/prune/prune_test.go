package prune

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spatl/internal/comm"
	"spatl/internal/data"
	"spatl/internal/eval"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

func testModel(t testing.TB, arch string) *models.SplitModel {
	t.Helper()
	return models.Build(models.Spec{Arch: arch, Classes: 10, InC: 3, H: 8, W: 8, Width: 0.25}, 1)
}

func uniformRatios(n int, r float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r
	}
	return out
}

func TestMaskFromScores(t *testing.T) {
	m := MaskFromScores([]float64{3, 1, 4, 1, 5}, 0.4)
	if m.Kept != 2 {
		t.Fatalf("kept %d, want 2", m.Kept)
	}
	if !m.Keep[4] || !m.Keep[2] {
		t.Fatalf("must keep the two largest, got %v", m.Keep)
	}
	// Always at least one.
	m = MaskFromScores([]float64{1, 2}, 0.0)
	if m.Kept != 1 {
		t.Fatal("minimum one channel")
	}
	// Ratio 1 keeps all.
	m = MaskFromScores([]float64{1, 2, 3}, 1)
	if m.Kept != 3 {
		t.Fatal("ratio 1 keeps all")
	}
}

func TestChannelScoresMatchManualL1(t *testing.T) {
	m := testModel(t, "resnet20")
	u := m.PrunableUnits()[0]
	scores := ChannelScores(u.Conv)
	w := u.Conv.Weight().W
	cols := w.Dim(1)
	var manual float64
	for j := 0; j < cols; j++ {
		manual += math.Abs(float64(w.Data[j]))
	}
	if math.Abs(scores[0]-manual) > 1e-5 {
		t.Fatalf("score[0] = %v, manual %v", scores[0], manual)
	}
}

func TestSelectFullRatiosSelectsEverything(t *testing.T) {
	m := testModel(t, "resnet20")
	sel := Select(m, uniformRatios(len(m.PrunableUnits()), 1))
	if len(sel.Ranges) != 1 {
		t.Fatalf("full selection should be one range, got %d", len(sel.Ranges))
	}
	if sel.KeepFrac() != 1 {
		t.Fatalf("KeepFrac = %v", sel.KeepFrac())
	}
}

func TestSelectReducesPayload(t *testing.T) {
	for _, arch := range []string{"resnet20", "vgg11", "cnn2"} {
		m := testModel(t, arch)
		sel := Select(m, uniformRatios(len(m.PrunableUnits()), 0.5))
		if sel.KeepFrac() >= 0.95 {
			t.Fatalf("%s: 0.5 ratios kept %.3f of state", arch, sel.KeepFrac())
		}
		if sel.KeepFrac() <= 0.2 {
			t.Fatalf("%s: selection dropped too much (%.3f)", arch, sel.KeepFrac())
		}
		// Ranges must be valid for comm transport.
		s := &comm.Sparse{Ranges: sel.Ranges, Values: make([]float32, 0)}
		n := 0
		for _, r := range sel.Ranges {
			n += int(r.Len)
		}
		s.Values = make([]float32, n)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: invalid ranges: %v", arch, err)
		}
	}
}

// Property: for random ratio vectors, selection ranges are sorted,
// non-overlapping and within bounds, and KeepFrac is monotone in a
// uniform ratio.
func TestSelectionRangesWellFormedProperty(t *testing.T) {
	m := testModel(t, "resnet20")
	k := len(m.PrunableUnits())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ratios := make([]float64, k)
		for i := range ratios {
			ratios[i] = 0.2 + 0.8*rng.Float64()
		}
		sel := Select(m, ratios)
		prevEnd := uint32(0)
		for i, r := range sel.Ranges {
			if r.Len == 0 {
				return false
			}
			if i > 0 && r.Start < prevEnd {
				return false
			}
			if int(r.Start+r.Len) > sel.StateLen {
				return false
			}
			prevEnd = r.Start + r.Len
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKeepFracMonotone(t *testing.T) {
	m := testModel(t, "resnet20")
	k := len(m.PrunableUnits())
	prev := -1.0
	for _, r := range []float64{0.3, 0.5, 0.7, 0.9, 1.0} {
		f := Select(m, uniformRatios(k, r)).KeepFrac()
		if f < prev {
			t.Fatalf("KeepFrac not monotone: %v after %v", f, prev)
		}
		prev = f
	}
}

// mapMaskedFLOPs is maskedFLOPs as it was written first, with the
// multipliers looked up in maps keyed by layer: the reference the
// map-free scan must equal.
func mapMaskedFLOPs(m *models.SplitModel, masks []Mask) (pruned, total int64) {
	outMult := map[*nn.Conv2D]float64{}
	inMult := map[*nn.Conv2D]float64{}
	bnMult := map[*nn.BatchNorm2D]float64{}
	for i, u := range m.PrunableUnits() {
		f := masks[i].Frac()
		outMult[u.Conv] = f
		if u.Next != nil {
			inMult[u.Next] = f
		}
		if u.BN != nil {
			bnMult[u.BN] = f
		}
	}
	nn.Walk(m.Encoder, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2D:
			f := v.FLOPs()
			total += f
			mult := 1.0
			if o, ok := outMult[v]; ok {
				mult *= o
			}
			if in, ok := inMult[v]; ok {
				mult *= in
			}
			pruned += int64(float64(f) * mult)
		case *nn.BatchNorm2D:
			f := v.FLOPs()
			total += f
			mult := 1.0
			if b, ok := bnMult[v]; ok {
				mult = b
			}
			pruned += int64(float64(f) * mult)
		case *nn.Sequential, *nn.BasicBlock:
		default:
			f := l.FLOPs()
			total += f
			pruned += f
		}
	})
	pf := m.Predictor.FLOPs()
	return pruned + pf, total + pf
}

// TestMaskedFLOPsMatchesMapLookup pins the unit scan to the map lookup
// on resnet20 and vgg11 — a residual family whose consumer convs are not
// units, and a chain whose convs are both a unit and a consumer — over
// random per-unit keep ratios.
func TestMaskedFLOPsMatchesMapLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, arch := range []string{"resnet20", "vgg11"} {
		// 16×16 input: VGG-11's pooling stack needs it.
		m := models.Build(models.Spec{Arch: arch, Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}, 1)
		ratios := make([]float64, len(m.PrunableUnits()))
		for trial := 0; trial < 20; trial++ {
			for i := range ratios {
				ratios[i] = 0.05 + 0.95*rng.Float64()
			}
			masks := Select(m, ratios).Masks
			pr, tot := MaskedFLOPs(m, masks)
			wantPr, wantTot := mapMaskedFLOPs(m, masks)
			if pr != wantPr || tot != wantTot {
				t.Fatalf("%s trial %d: scan gives %d of %d FLOPs, map lookup %d of %d",
					arch, trial, pr, tot, wantPr, wantTot)
			}
			if trial == 0 && pr == tot {
				t.Fatalf("%s: the masks pruned nothing", arch)
			}
		}
	}
}

func TestMaskedFLOPsBounds(t *testing.T) {
	m := testModel(t, "resnet20")
	k := len(m.PrunableUnits())
	pr, tot := MaskedFLOPs(m, Select(m, uniformRatios(k, 1)).Masks)
	if pr != tot {
		t.Fatalf("full ratios: pruned %d != total %d", pr, tot)
	}
	pr2, tot2 := MaskedFLOPs(m, Select(m, uniformRatios(k, 0.4)).Masks)
	if tot2 != tot {
		t.Fatal("total must not change with masks")
	}
	if pr2 >= pr {
		t.Fatal("pruning must reduce FLOPs")
	}
	if float64(pr2)/float64(tot2) < 0.2 {
		t.Fatalf("0.4 ratios cut too much: %.3f", float64(pr2)/float64(tot2))
	}
}

func TestWithMaskedZeroesAndRestores(t *testing.T) {
	m := testModel(t, "resnet20")
	k := len(m.PrunableUnits())
	before := m.State(models.ScopeAll)
	sel := Select(m, uniformRatios(k, 0.5))

	x := tensor.New(2, 3, 8, 8)
	x.Randn(nn.Rng(3), 1)
	// Layers reuse their output buffers across calls, so snapshot the
	// first forward before running the second.
	full := m.Forward(x, false).Clone()
	var masked *tensor.Tensor
	WithMasked(m, sel, func() {
		masked = m.Forward(x, false)
	})
	after := m.State(models.ScopeAll)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("WithMasked must restore weights exactly")
		}
	}
	same := true
	for i := range full.Data {
		if full.Data[i] != masked.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("masked forward should differ from full forward")
	}
}

func TestMaskedChannelsProduceZeroOutput(t *testing.T) {
	// After masking, a pruned channel of the unit's BN output must be
	// exactly zero in eval mode.
	m := testModel(t, "vgg11")
	units := m.PrunableUnits()
	masks := make([]Mask, len(units))
	for i, u := range units {
		masks[i] = Mask{Keep: make([]bool, u.Conv.OutC), Kept: u.Conv.OutC}
		for c := range masks[i].Keep {
			masks[i].Keep[c] = true
		}
	}
	// Prune channel 0 of unit 0.
	masks[0].Keep[0] = false
	masks[0].Kept--
	sel := SelectWithMasks(m, masks)
	x := tensor.New(1, 3, 8, 8)
	x.Randn(nn.Rng(5), 1)
	WithMasked(m, sel, func() {
		// Forward through conv0+bn0 only.
		h := units[0].Conv.Forward(x, false)
		h = units[0].BN.Forward(h, false)
		plane := h.Dim(2) * h.Dim(3)
		for j := 0; j < plane; j++ {
			if h.Data[j] != 0 {
				t.Fatalf("pruned channel output %v at %d, want 0", h.Data[j], j)
			}
		}
	})
}

func TestL1AndFPGMMasksDiffer(t *testing.T) {
	m := testModel(t, "resnet20")
	l1 := L1Masks(m, 0.5)
	fpgm := FPGMMasks(m, 0.5)
	if len(l1) != len(fpgm) {
		t.Fatal("mask counts differ")
	}
	differs := false
	for i := range l1 {
		if l1[i].Kept != fpgm[i].Kept {
			t.Fatal("same ratio must keep same count")
		}
		for j := range l1[i].Keep {
			if l1[i].Keep[j] != fpgm[i].Keep[j] {
				differs = true
			}
		}
	}
	if !differs {
		t.Log("warning: L1 and FPGM selected identical channels (possible but unusual)")
	}
}

func trainAndVal(t testing.TB) (*data.Dataset, *data.Dataset) {
	t.Helper()
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 10, H: 8, W: 8, Noise: 0.25}, 300, 21, 22)
	return ds.Split(0.8)
}

func TestSFPReturnsMasksAndTrains(t *testing.T) {
	m := testModel(t, "resnet20")
	train, _ := trainAndVal(t)
	masks := SFP(m, train, 0.6, 1, 0.05, rand.New(rand.NewSource(1)))
	if len(masks) != len(m.PrunableUnits()) {
		t.Fatalf("SFP returned %d masks", len(masks))
	}
	for i, mk := range masks {
		want := int(math.Ceil(0.6 * float64(len(mk.Keep))))
		if mk.Kept != want {
			t.Fatalf("unit %d kept %d, want %d", i, mk.Kept, want)
		}
	}
}

func TestDSAMeetsBudget(t *testing.T) {
	m := testModel(t, "resnet20")
	_, val := trainAndVal(t)
	masks := DSAMasks(m, val, 0.7)
	pr, tot := MaskedFLOPs(m, masks)
	ratio := float64(pr) / float64(tot)
	if ratio > 0.78 {
		t.Fatalf("DSA FLOPs ratio %.3f exceeds budget 0.7 by too much", ratio)
	}
}

func TestUniformRatiosForBudget(t *testing.T) {
	m := testModel(t, "resnet20")
	r := UniformRatiosForBudget(m, 0.6)
	masks := L1Masks(m, r)
	pr, tot := MaskedFLOPs(m, masks)
	got := float64(pr) / float64(tot)
	if math.Abs(got-0.6) > 0.12 {
		t.Fatalf("budget search gave ratio %.3f for budget 0.6", got)
	}
}

func TestFineTunePinsPrunedChannels(t *testing.T) {
	m := testModel(t, "resnet20")
	train, _ := trainAndVal(t)
	k := len(m.PrunableUnits())
	sel := Select(m, uniformRatios(k, 0.5))
	FineTune(m, sel, train, 1, 0.05, rand.New(rand.NewSource(2)))
	for ui, u := range sel.Units {
		w := u.Conv.Weight().W
		rowLen := w.Dim(1)
		for ch, keep := range sel.Masks[ui].Keep {
			if keep {
				continue
			}
			row := w.Data[ch*rowLen : (ch+1)*rowLen]
			for j, v := range row {
				if v != 0 {
					t.Fatalf("pruned channel %d weight %d = %v after fine-tune", ch, j, v)
				}
			}
		}
	}
}

// maskedAccuracy is the reward's accuracy term by the reference route:
// the full-width model with the pruned channels zeroed in place.
func maskedAccuracy(m *models.SplitModel, val *data.Dataset, ratios []float64) float64 {
	var acc float64
	WithMasked(m, Select(m, ratios), func() { acc = eval.Accuracy(m, val, 64) })
	return acc
}

func TestEnvStepRewardComponents(t *testing.T) {
	m := testModel(t, "resnet20")
	_, val := trainAndVal(t)
	budget := 0.6
	env := NewEnv(m, val, budget)
	k := len(m.PrunableUnits())
	// Keeping everything: FLOPs ratio 1 > budget, so the reward is the
	// accuracy less Penalty·(1 − budget).
	full := uniformRatios(k, 1)
	if pr, tot := MaskedFLOPs(m, Select(m, full).Masks); pr != tot {
		t.Fatalf("full ratios FLOPs %d of %d", pr, tot)
	}
	acc := eval.Accuracy(m, val, 64)
	if r := env.Step(0, full); r != acc-env.Penalty*(1-budget) {
		t.Fatalf("over-budget reward %v, want accuracy %v less the penalty", r, acc)
	}
	// Within budget the reward is the sub-network's accuracy alone.
	low := uniformRatios(k, 0.3)
	if pr, tot := MaskedFLOPs(m, Select(m, low).Masks); float64(pr)/float64(tot) > budget {
		t.Fatalf("0.3 ratios should meet budget, got %v", float64(pr)/float64(tot))
	}
	if r, want := env.Step(1, low), maskedAccuracy(m, val, low); r != want {
		t.Fatalf("within-budget reward %v, want the masked accuracy %v", r, want)
	}
}

// TestEnvAccuracyEvaluatedUnderMask: the accuracy a Step scores on the
// extracted sub-network is exactly the accuracy of the full-width model
// with the pruned channels zeroed, whichever slot scores it and whatever
// that slot scored before.
func TestEnvAccuracyEvaluatedUnderMask(t *testing.T) {
	m := testModel(t, "resnet20")
	_, val := trainAndVal(t)
	env := NewEnv(m, val, 1.0) // no budget pressure: the reward is the accuracy
	k := len(m.PrunableUnits())
	if r, full := env.Step(0, uniformRatios(k, 1)), eval.Accuracy(m, val, 64); r != full {
		t.Fatalf("ratio-1 accuracy %v != full accuracy %v", r, full)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		ratios := make([]float64, k)
		for i := range ratios {
			ratios[i] = 0.2 + 0.8*rng.Float64()
		}
		if r, want := env.Step(trial%2, ratios), maskedAccuracy(m, val, ratios); r != want {
			t.Fatalf("trial %d: Step accuracy %v, masked accuracy %v", trial, r, want)
		}
	}
}

func TestSelectionAlwaysShipsPerChannelScalars(t *testing.T) {
	// BN affine/statistics and conv biases must be salient regardless of
	// the masks — they are negligible bytes and keep the global model's
	// non-salient channels correctly normalized.
	m := testModel(t, "resnet20")
	k := len(m.PrunableUnits())
	sel := Select(m, uniformRatios(k, 0.3))
	covered := make([]bool, sel.StateLen)
	for _, r := range sel.Ranges {
		for i := r.Start; i < r.Start+r.Len; i++ {
			covered[i] = true
		}
	}
	paramSeg, bnSeg := m.EncoderOffsets()
	for _, u := range sel.Units {
		if u.BN == nil {
			continue
		}
		for _, p := range u.BN.Params() {
			seg := paramSeg[p.W]
			for i := seg.Off; i < seg.Off+seg.Len; i++ {
				if !covered[i] {
					t.Fatalf("BN affine entry %d not salient", i)
				}
			}
		}
		stats := bnSeg[u.BN]
		for _, seg := range stats {
			for i := seg.Off; i < seg.Off+seg.Len; i++ {
				if !covered[i] {
					t.Fatalf("BN statistic entry %d not salient", i)
				}
			}
		}
	}
}

func TestZeroPrunedMatchesWithMasked(t *testing.T) {
	m := testModel(t, "resnet20")
	k := len(m.PrunableUnits())
	sel := Select(m, uniformRatios(k, 0.5))
	x := tensor.New(2, 3, 8, 8)
	x.Randn(nn.Rng(7), 1)
	var masked *tensor.Tensor
	WithMasked(m, sel, func() { masked = m.Forward(x, false) })
	// Permanent zeroing on a clone must give the same output.
	c := m.Clone()
	cSel := SelectWithMasks(c, sel.Masks)
	ZeroPruned(c, cSel)
	got := c.Forward(x, false)
	for i := range got.Data {
		if got.Data[i] != masked.Data[i] {
			t.Fatal("ZeroPruned must match WithMasked")
		}
	}
}
