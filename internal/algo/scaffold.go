package algo

import (
	"fmt"
	"math/rand"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
)

// SCAFFOLDAggregator is the server side of SCAFFOLD (Karimireddy et
// al.): it holds the server control variate c, broadcasts it alongside
// the model, and folds the uploaded (Δw, Δc) pairs with
// x += (1/|S|)·ΣΔw and c += (1/N)·ΣΔc.
type SCAFFOLDAggregator struct {
	Stream[denseUpload]
	Global *models.SplitModel

	cfg    Config
	c      []float32 // server control variate over trainable params
	bcast  []byte
	accW   []float64 // unscaled ΣΔwᵢ, folded on arrival
	accC   []float64 // unscaled ΣΔcᵢ
	folded int

	stepSpan func(off int, span []float32) // stepInto, bound once
}

// NewSCAFFOLDAggregator wires the aggregator around the global model.
// cfg.NumClients must be the federation size N (the control update
// scales by 1/N).
func NewSCAFFOLDAggregator(global *models.SplitModel, cfg Config) *SCAFFOLDAggregator {
	cfg = cfg.WithDefaults()
	if cfg.NumClients <= 0 {
		panic(fmt.Sprintf("algo: SCAFFOLD needs Config.NumClients > 0, got %d", cfg.NumClients))
	}
	a := &SCAFFOLDAggregator{
		Global: global,
		cfg:    cfg,
		c:      make([]float32, nn.ParamCount(global.Params())),
	}
	initDense(&a.Stream, a.parseUpload, a.foldUploads)
	a.stepSpan = a.stepInto
	return a
}

// ControlVariate exposes the server control variate c (read-only use).
func (a *SCAFFOLDAggregator) ControlVariate() []float32 { return a.c }

// Broadcast implements Aggregator: joined dense payloads for the model
// state and the server control variate.
func (a *SCAFFOLDAggregator) Broadcast(round int) []byte {
	defer a.RoundSpan(round, "agg.broadcast").End()
	n := a.Global.StateLen(models.ScopeAll)
	state := a.Global.StateInto(models.ScopeAll, comm.GetF32(n))
	encS := a.cfg.encodeDenseInto(comm.GetBuf(a.cfg.denseLen(n)), state)
	encC := a.cfg.encodeDenseInto(comm.GetBuf(a.cfg.denseLen(len(a.c))), a.c)
	a.bcast = comm.JoinPayloadsInto(a.bcast, encS, encC)
	comm.PutBuf(encC)
	comm.PutBuf(encS)
	comm.PutF32(state)
	a.ObserveSize("payload.down", len(a.bcast))
	return a.bcast
}

// parseUpload checks one joined (Δw, Δc) upload. SCAFFOLD weights every
// arrived upload equally, so the fold weight is 1 whatever the data
// size — the 1/|S| scaling happens at finalize.
func (a *SCAFFOLDAggregator) parseUpload(_ uint32, _ int, payload []byte) (denseUpload, bool) {
	var parts [2][]byte
	if comm.SplitPayloadsInto(parts[:], payload) != nil {
		return denseUpload{}, false
	}
	dW, err1 := comm.ViewDense(parts[0])
	dC, err2 := comm.ViewDense(parts[1])
	if err1 != nil || err2 != nil || dW.Len() != a.Global.StateLen(models.ScopeAll) || dC.Len() != len(a.c) {
		return denseUpload{}, false
	}
	return denseUpload{raw: payload, part: [2]comm.DenseView{dW, dC}, w: 1}, true
}

// foldUploads adds a run's unscaled ΣΔw / ΣΔc terms into the float64
// accumulators, in run order.
func (a *SCAFFOLDAggregator) foldUploads(run []denseUpload) {
	if a.folded == 0 {
		a.accW = zeroed(a.accW, a.Global.StateLen(models.ScopeAll))
		a.accC = zeroed(a.accC, len(a.c))
	}
	a.folded += len(run)
	foldDense(a.accW, run, 0)
	foldDense(a.accC, run, 1)
}

// FinishRound implements Aggregator: x ← x_g + (ΣΔw)/|S| ; c ← c +
// (ΣΔc)/N, where S is the set of clients whose uploads actually
// arrived — the finalize half of the two-phase reduce, written straight
// into the global model on the caller, bitwise identical to
// StreamFoldRefSCAFFOLD at any GOMAXPROCS.
func (a *SCAFFOLDAggregator) FinishRound(round int) {
	defer a.RoundSpan(round, "agg.reduce").End()
	a.FinishStream(round)
	if a.folded == 0 {
		return
	}
	a.Global.EachStateRange(models.ScopeAll, 0, len(a.accW), a.stepSpan)
	invN := float64(a.cfg.NumClients)
	for j := range a.c {
		a.c[j] = float32(float64(a.c[j]) + a.accC[j]/invN)
	}
	a.folded = 0
}

// stepInto is FinishRound's span callback: span = f32(f64(span) +
// (ΣΔw)/|S|).
func (a *SCAFFOLDAggregator) stepInto(off int, span []float32) {
	acc := a.accW[off : off+len(span)]
	invS := float64(a.folded)
	for j := range span {
		span[j] = float32(float64(span[j]) + acc[j]/invS)
	}
}

// Final implements Aggregator.
func (a *SCAFFOLDAggregator) Final() []byte {
	return comm.EncodeDense(a.Global.State(models.ScopeAll))
}

// SCAFFOLDTrainer is the client side: control-variate-corrected local
// SGD, then an Option-II control update, uploading the joined (Δw, Δc)
// pair — the ≈2× FedAvg per-round payload the SPATL paper highlights.
type SCAFFOLDTrainer struct {
	Telemetered
	Client *Client

	cfg   Config
	upBuf []byte
}

// NewSCAFFOLDTrainer wires a trainer around a client, initializing its
// control variate to zero if unset.
func NewSCAFFOLDTrainer(c *Client, cfg Config) *SCAFFOLDTrainer {
	if c.Control == nil {
		c.Control = make([]float32, nn.ParamCount(c.Model.Params()))
	}
	return &SCAFFOLDTrainer{Client: c, cfg: cfg.WithDefaults()}
}

// LocalUpdate implements Trainer.
func (t *SCAFFOLDTrainer) LocalUpdate(round int, payload []byte) []byte {
	sp := t.RoundSpan(round, "client.update")
	defer sp.End()
	m := t.Client.Model
	nState := m.StateLen(models.ScopeAll)
	nCtrl := len(t.Client.Control)
	parts, err := comm.SplitPayloads(payload)
	if err != nil || len(parts) != 2 {
		return nil
	}
	globalState, err := comm.DecodeDensePooled(parts[0], nState)
	if err != nil {
		return nil
	}
	serverC, err := comm.DecodeDensePooled(parts[1], nCtrl)
	if err != nil {
		comm.PutF32(globalState)
		return nil
	}
	m.SetState(models.ScopeAll, globalState)
	globalFlat := nn.FlattenParams(m.Params())

	rng := rand.New(rand.NewSource(ClientSeed(t.cfg.Seed, round, t.Client.ID)))
	opts := t.cfg.localOpts(m.Params(), round)
	opts.Hook = addControl(serverC, t.Client.Control, m.Params())
	train := sp.Child("client.train")
	steps := LocalSGD(t.Client, opts, rng)
	train.End()

	localFlat := nn.FlattenParams(m.Params())
	localState := m.StateInto(models.ScopeAll, comm.GetF32(nState))
	// Option-II control update: cᵢ⁺ = cᵢ − c + (x_g − x_i)/(K·η_eff).
	// With classical momentum each unit of gradient moves the weights
	// by ≈ η/(1−µ) over time, so the effective step size is scaled
	// accordingly; without the correction the control variates
	// overestimate gradients by 1/(1−µ) and training explodes.
	inv := 1.0 / (float64(steps) * EffectiveLR(t.cfg.LRAt(round), t.cfg.Momentum))
	newCi := make([]float32, nCtrl)
	dC := comm.GetF32(nCtrl)
	for j := range localFlat {
		newCi[j] = t.Client.Control[j] - serverC[j] + float32(float64(globalFlat[j]-localFlat[j])*inv)
		dC[j] = newCi[j] - t.Client.Control[j]
	}
	t.Client.Control = newCi
	comm.PutF32(serverC)

	dW := comm.GetF32(nState)
	for j := range localState {
		dW[j] = localState[j] - globalState[j]
	}
	comm.PutF32(localState)
	comm.PutF32(globalState)
	encW := t.cfg.encodeDenseInto(comm.GetBuf(t.cfg.denseLen(nState)), dW)
	encC := t.cfg.encodeDenseInto(comm.GetBuf(t.cfg.denseLen(nCtrl)), dC)
	t.upBuf = comm.JoinPayloadsInto(t.upBuf, encW, encC)
	comm.PutBuf(encC)
	comm.PutBuf(encW)
	comm.PutF32(dW)
	comm.PutF32(dC)
	return t.upBuf
}

// Finish implements Trainer.
func (t *SCAFFOLDTrainer) Finish(payload []byte) {
	if state, err := comm.DecodeDenseAnyInto(nil, payload); err == nil {
		t.Client.Model.SetState(models.ScopeAll, state)
	}
}
