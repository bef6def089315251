package prune

import (
	"spatl/internal/models"
	"spatl/internal/nn"
)

// WithMasked is the reference a scored selection is held to: it zeroes
// the pruned channels' parameters in place so the full-width model
// behaves as the selected sub-network, runs fn, then restores the
// original weights. Extract, and so Env.Step, must reproduce what fn
// sees bit for bit. It is exported for this package's external tests.
func WithMasked(m *models.SplitModel, sel *Selection, fn func()) {
	type saved struct {
		p    *nn.Param
		copy []float32
	}
	var saves []saved
	stash := func(p *nn.Param) {
		cp := make([]float32, len(p.W.Data))
		copy(cp, p.W.Data)
		saves = append(saves, saved{p: p, copy: cp})
	}
	for _, u := range sel.Units {
		stash(u.Conv.Weight())
		if ps := u.Conv.Params(); len(ps) > 1 {
			stash(ps[1])
		}
		if u.BN != nil {
			stash(u.BN.Params()[0])
			stash(u.BN.Params()[1])
		}
	}
	defer func() {
		for _, s := range saves {
			copy(s.p.W.Data, s.copy)
		}
	}()
	ZeroPruned(m, sel)
	fn()
}
