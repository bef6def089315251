package prune

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"spatl/internal/eval"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// extractEquivalence asserts that the physically extracted model computes
// the eval-mode function of the masked original bit for bit: the terms it
// leaves out of each dot product are exact zeros.
func extractEquivalence(t *testing.T, arch string, ratios []float64, seed int64) {
	t.Helper()
	spec := models.Spec{Arch: arch, Classes: 5, InC: 3, H: 16, W: 16, Width: 0.25}
	if arch == "cnn2" {
		spec = models.Spec{Arch: arch, Classes: 5, InC: 1, H: 28, W: 28, Width: 0.25}
	}
	m := models.Build(spec, seed)
	// Move BN stats off their init so the test is not vacuous.
	x := tensor.New(6, spec.InC, spec.H, spec.W)
	x.Randn(nn.Rng(seed+1), 1)
	m.Forward(x, true)
	m.Forward(x, true)

	if ratios == nil {
		units := m.PrunableUnits()
		rng := rand.New(rand.NewSource(seed + 2))
		ratios = make([]float64, len(units))
		for i := range ratios {
			ratios[i] = 0.3 + 0.7*rng.Float64()
		}
	}
	sel := Select(m, ratios)
	ext := Extract(m, sel)

	var masked *tensor.Tensor
	WithMasked(m, sel, func() { masked = m.Forward(x, false) })
	got := ext.Forward(x, false)
	if got.Len() != masked.Len() {
		t.Fatalf("output sizes differ: %d vs %d", got.Len(), masked.Len())
	}
	for i := range got.Data {
		if got.Data[i] != masked.Data[i] {
			t.Fatalf("%s: extracted output[%d] = %v, masked = %v", arch, i, got.Data[i], masked.Data[i])
		}
	}
}

func TestExtractEquivalenceResNet(t *testing.T)   { extractEquivalence(t, "resnet20", nil, 1) }
func TestExtractEquivalenceResNet56(t *testing.T) { extractEquivalence(t, "resnet56", nil, 4) }
func TestExtractEquivalenceVGG(t *testing.T)      { extractEquivalence(t, "vgg11", nil, 2) }
func TestExtractEquivalenceCNN2(t *testing.T)     { extractEquivalence(t, "cnn2", nil, 3) }

func TestExtractEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		spec := models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}
		m := models.Build(spec, seed)
		x := tensor.New(2, 3, 8, 8)
		x.Randn(nn.Rng(seed+1), 1)
		m.Forward(x, true)
		rng := rand.New(rand.NewSource(seed + 2))
		ratios := make([]float64, len(m.PrunableUnits()))
		for i := range ratios {
			ratios[i] = 0.25 + 0.75*rng.Float64()
		}
		sel := Select(m, ratios)
		ext := Extract(m, sel)
		var masked *tensor.Tensor
		WithMasked(m, sel, func() { masked = m.Forward(x, false) })
		got := ext.Forward(x, false)
		for i := range got.Data {
			if got.Data[i] != masked.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkspaceReextractionMatchesFresh: a workspace re-sliced from one
// selection to the next — narrower, wider, the full width — computes what
// a fresh extraction of each computes, bit for bit, and after its first
// extraction allocates no tensor: its arrays have the model's full width.
func TestWorkspaceReextractionMatchesFresh(t *testing.T) {
	for _, arch := range []string{"resnet20", "vgg11", "cnn2"} {
		spec := models.Spec{Arch: arch, Classes: 5, InC: 3, H: 16, W: 16, Width: 0.25}
		m := models.Build(spec, 5)
		x := tensor.New(3, spec.InC, spec.H, spec.W)
		x.Randn(nn.Rng(6), 1)
		m.Forward(x, true)
		k := len(m.PrunableUnits())
		rng := rand.New(rand.NewSource(7))
		ws := newWorkspace(m)
		arrays := map[*float32]bool{}
		for step, lo := range []float64{0.2, 0.6, 0.2, 1} {
			ratios := make([]float64, k)
			for i := range ratios {
				ratios[i] = lo + (1-lo)*rng.Float64()
			}
			sel := Select(m, ratios)
			want := Extract(m, sel).Forward(x, false)
			got := ws.extract(m, sel)
			for _, p := range got.Params() {
				if step == 0 {
					arrays[&p.W.Data[:1][0]] = true
				} else if !arrays[&p.W.Data[:1][0]] {
					t.Fatalf("%s step %d: %s moved to a new array", arch, step, p.Name)
				}
			}
			out := got.Forward(x, false)
			for i := range want.Data {
				if out.Data[i] != want.Data[i] {
					t.Fatalf("%s step %d: re-extracted output[%d] = %v, fresh extraction %v", arch, step, i, out.Data[i], want.Data[i])
				}
			}
			got.Release()
		}
	}
}

func TestExtractActuallyShrinks(t *testing.T) {
	for _, arch := range []string{"resnet20", "vgg11"} {
		// 16×16 input: VGG-11's pooling stack needs it.
		m := models.Build(models.Spec{Arch: arch, Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}, 1)
		m.Describe()
		k := len(m.PrunableUnits())
		sel := Select(m, uniformRatios(k, 0.5))
		ext := Extract(m, sel)
		pBase, fBase := m.Describe()
		pExt, fExt := ext.Describe()
		if pExt >= pBase {
			t.Fatalf("%s: extracted params %d not below original %d", arch, pExt, pBase)
		}
		if fExt >= fBase {
			t.Fatalf("%s: extracted FLOPs %d not below original %d", arch, fExt, fBase)
		}
		// Analytic masked FLOPs must match the extracted model's real
		// FLOPs closely (both count the same convolutions).
		prAnalytic, _ := MaskedFLOPs(m, sel.Masks)
		ratio := float64(fExt) / float64(prAnalytic)
		if ratio < 0.95 || ratio > 1.05 {
			t.Fatalf("%s: analytic pruned FLOPs %d vs extracted %d (ratio %.3f)", arch, prAnalytic, fExt, ratio)
		}
	}
}

// TestExtractedModelStateLayout: an extracted model is assembled outside
// models.Build, from layers of other widths, and its cached state layout
// must be its own — the StateSpec of an uncached walk of its layers
// (parameters in Params order, then BN running statistics in layer
// order), not anything remembered from the model it was cut from.
func TestExtractedModelStateLayout(t *testing.T) {
	for _, arch := range []string{"resnet20", "vgg11", "cnn2"} {
		spec := models.Spec{Arch: arch, Classes: 5, InC: 3, H: 16, W: 16, Width: 0.25}
		m := models.Build(spec, 1)
		base := m.StateLen(models.ScopeAll) // warm the original's cache first
		ext := Extract(m, Select(m, uniformRatios(len(m.PrunableUnits()), 0.5)))
		for _, scope := range []models.Scope{models.ScopeAll, models.ScopeEncoder} {
			roots := []*nn.Sequential{ext.Encoder}
			if scope == models.ScopeAll {
				roots = append(roots, ext.Predictor)
			}
			var want models.StateSpec
			for _, root := range roots {
				for _, p := range root.Params() {
					want.Segments = append(want.Segments, models.Segment{Name: p.Name, Off: want.Total, Len: p.W.Len()})
					want.Total += p.W.Len()
				}
			}
			bn := 0
			for _, root := range roots {
				nn.Walk(root, func(l nn.Layer) {
					if b, ok := l.(*nn.BatchNorm2D); ok {
						for _, stat := range []string{"rmean", "rvar"} {
							want.Segments = append(want.Segments, models.Segment{Name: fmt.Sprintf("bn%d.%s", bn, stat), Off: want.Total, Len: b.C})
							want.Total += b.C
						}
						bn++
					}
				})
			}
			if got := ext.StateSpec(scope); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s scope %d: extracted model's StateSpec differs from an uncached walk", arch, scope)
			}
			if got := ext.StateLen(scope); got != want.Total || (scope == models.ScopeAll && got >= base) {
				t.Fatalf("%s scope %d: StateLen %d, walk total %d, original %d", arch, scope, got, want.Total, base)
			}
		}
		if m.StateLen(models.ScopeAll) != base {
			t.Fatalf("%s: extracting changed the original's layout", arch)
		}
	}
}

func TestExtractFullSelectionIsIdentity(t *testing.T) {
	m := testModel(t, "resnet20")
	x := tensor.New(2, 3, 8, 8)
	x.Randn(nn.Rng(9), 1)
	m.Forward(x, true)
	sel := Select(m, uniformRatios(len(m.PrunableUnits()), 1))
	ext := Extract(m, sel)
	a := m.Forward(x, false)
	b := ext.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("ratio-1 extraction must reproduce the model exactly")
		}
	}
	pA, _ := m.Describe()
	pB, _ := ext.Describe()
	if pA != pB {
		t.Fatalf("ratio-1 extraction changed param count: %d vs %d", pA, pB)
	}
}

func TestExtractedModelIsTrainable(t *testing.T) {
	// Fine-tuning the extracted model must work (gradients flow through
	// the reduced-width blocks).
	m := testModel(t, "resnet20")
	train, val := trainAndVal(t)
	sel := Select(m, uniformRatios(len(m.PrunableUnits()), 0.5))
	ext := Extract(m, sel)
	params := ext.Params()
	opt := nn.NewSGD(params, 0.02, 0.9, 0)
	rng := rand.New(rand.NewSource(11))
	var firstLoss, lastLoss float64
	for e := 0; e < 3; e++ {
		for _, idx := range train.Batches(rng, 32) {
			x, y := train.Batch(idx)
			nn.ZeroGrad(params)
			out := ext.Forward(x, true)
			loss, grad := nn.SoftmaxCrossEntropy(out, y)
			ext.Backward(grad)
			opt.Step()
			if firstLoss == 0 {
				firstLoss = loss
			}
			lastLoss = loss
		}
	}
	if lastLoss >= firstLoss {
		t.Fatalf("extracted model did not train: first %.4f last %.4f", firstLoss, lastLoss)
	}
	if acc := eval.Accuracy(ext, val, 32); acc < 0.15 {
		t.Fatalf("extracted model accuracy %.3f unreasonably low", acc)
	}
}

func TestExtractUnsupportedArchPanics(t *testing.T) {
	spec := models.Spec{Arch: "mlp", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.5}
	m := models.Build(spec, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported architecture")
		}
	}()
	Extract(m, &Selection{})
}
