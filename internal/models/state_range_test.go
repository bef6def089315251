package models_test

import (
	"math"
	"math/rand"
	"testing"

	"spatl/internal/models"
	"spatl/internal/prune"
)

// TestEachStateRangeIsStateAndSetState holds the span visitor to the flat
// state it walks, on resnet20, vgg11 and a width-sliced resnet20 (every
// prunable unit at half width, as a heterogeneous client trains it), in
// both scopes and over random [lo, hi) ranges including empty ones and
// the whole state: the spans, concatenated in order, are State()[lo:hi];
// their offsets run contiguously from lo; and writing a vector through
// them leaves the model as SetState of that vector would.
func TestEachStateRangeIsStateAndSetState(t *testing.T) {
	spec := func(arch string) models.Spec {
		return models.Spec{Arch: arch, Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	}
	full := models.Build(spec("resnet20"), 5)
	ratios := make([]float64, len(full.PrunableUnits()))
	for i := range ratios {
		ratios[i] = 0.5
	}
	cases := map[string]func() *models.SplitModel{
		"resnet20": func() *models.SplitModel { return models.Build(spec("resnet20"), 3) },
		"vgg11":    func() *models.SplitModel { return models.Build(spec("vgg11"), 4) },
		"resnet20 width 0.5": func() *models.SplitModel {
			return prune.Extract(full, prune.Select(full, ratios))
		},
	}
	rng := rand.New(rand.NewSource(9))
	for name, build := range cases {
		for _, scope := range []models.Scope{models.ScopeAll, models.ScopeEncoder} {
			m, ref := build(), build()
			n := m.StateLen(scope)
			state := m.State(scope)
			for trial := 0; trial < 40; trial++ {
				lo, hi := rng.Intn(n+1), rng.Intn(n+1)
				if lo > hi {
					lo, hi = hi, lo
				}
				switch trial {
				case 0:
					lo, hi = 0, n
				case 1:
					hi = lo
				}
				var got []float32
				next := lo
				m.EachStateRange(scope, lo, hi, func(off int, span []float32) {
					if off != next || len(span) == 0 {
						t.Fatalf("%s [%d, %d): span at %d of %d, want one at %d", name, lo, hi, off, len(span), next)
					}
					got = append(got, span...)
					next += len(span)
				})
				if !sameBits(got, state[lo:hi]) {
					t.Fatalf("%s scope %d [%d, %d): visited spans differ from State()[lo:hi]", name, scope, lo, hi)
				}

				// Write a fresh vector's [lo, hi) through the spans; the
				// reference model gets the same vector via SetState, so
				// outside [lo, hi) both keep what they held.
				vec := append([]float32(nil), state...)
				for j := lo; j < hi; j++ {
					vec[j] = float32(rng.NormFloat64())
				}
				m.EachStateRange(scope, lo, hi, func(off int, span []float32) { copy(span, vec[off:]) })
				ref.SetState(scope, vec)
				if !sameBits(m.State(models.ScopeAll), ref.State(models.ScopeAll)) {
					t.Fatalf("%s scope %d [%d, %d): writing the spans differs from SetState", name, scope, lo, hi)
				}
				state = vec
			}
		}
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
