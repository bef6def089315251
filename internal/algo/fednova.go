package algo

import (
	"encoding/binary"
	"math/rand"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// FedNovaAggregator is the server side of FedNova (Wang et al.):
// normalized updates dᵢ = (x_g − x_i)/τᵢ weighted by data size, with
// τ_eff = Σpᵢτᵢ rescaling, plus the momentum variant — clients ship
// their momentum buffers, the server averages and redistributes them
// (the ≈2× per-round uplink the SPATL paper reports for FedNova).
type FedNovaAggregator struct {
	Stream[denseUpload]
	Global *models.SplitModel

	cfg      Config
	velocity []float32 // server-averaged momentum over trainable params
	bcast    []byte
	accD     []float64 // unscaled Σ wᵢ·dᵢ, folded on arrival
	accV     []float64 // unscaled Σ wᵢ·vᵢ
	sumW     float64
	sumWTau  float64 // Σ wᵢ·τᵢ (τ_eff numerator)
	tauEff   float64 // Σ wᵢ·τᵢ / Σ wᵢ, set by FinishRound for stepSpan
	folded   int

	stepSpan func(off int, span []float32) // stepInto, bound once
}

// NewFedNovaAggregator wires the aggregator around the global model.
func NewFedNovaAggregator(global *models.SplitModel, cfg Config) *FedNovaAggregator {
	a := &FedNovaAggregator{
		Global:   global,
		cfg:      cfg.WithDefaults(),
		velocity: make([]float32, nn.ParamCount(global.Params())),
	}
	initDense(&a.Stream, a.parseUpload, a.foldUploads)
	a.stepSpan = a.stepInto
	return a
}

// Velocity exposes the server-averaged momentum (read-only use).
func (a *FedNovaAggregator) Velocity() []float32 { return a.velocity }

// Broadcast implements Aggregator: joined dense payloads for the model
// state and the server momentum.
func (a *FedNovaAggregator) Broadcast(round int) []byte {
	defer a.RoundSpan(round, "agg.broadcast").End()
	n := a.Global.StateLen(models.ScopeAll)
	state := a.Global.StateInto(models.ScopeAll, comm.GetF32(n))
	encS := a.cfg.encodeDenseInto(comm.GetBuf(a.cfg.denseLen(n)), state)
	encV := a.cfg.encodeDenseInto(comm.GetBuf(a.cfg.denseLen(len(a.velocity))), a.velocity)
	a.bcast = comm.JoinPayloadsInto(a.bcast, encS, encV)
	comm.PutBuf(encV)
	comm.PutBuf(encS)
	comm.PutF32(state)
	a.ObserveSize("payload.down", len(a.bcast))
	return a.bcast
}

// parseUpload checks one three-part upload — normalized update d,
// momentum buffer, and the local step count τ as 4-byte little-endian.
func (a *FedNovaAggregator) parseUpload(_ uint32, trainSize int, payload []byte) (denseUpload, bool) {
	var parts [3][]byte
	if comm.SplitPayloadsInto(parts[:], payload) != nil || len(parts[2]) != 4 {
		return denseUpload{}, false
	}
	steps := binary.LittleEndian.Uint32(parts[2])
	d, err1 := comm.ViewDense(parts[0])
	v, err2 := comm.ViewDense(parts[1])
	if err1 != nil || err2 != nil || d.Len() != a.Global.StateLen(models.ScopeAll) || v.Len() != len(a.velocity) || steps == 0 {
		return denseUpload{}, false
	}
	return denseUpload{raw: payload, part: [2]comm.DenseView{d, v}, w: float64(trainSize), tau: float64(steps)}, true
}

// foldUploads adds a run's unscaled wᵢ·dᵢ and wᵢ·vᵢ terms into the
// float64 accumulators and tallies the τ_eff numerator, in run order.
func (a *FedNovaAggregator) foldUploads(run []denseUpload) {
	if a.folded == 0 {
		a.accD = zeroed(a.accD, a.Global.StateLen(models.ScopeAll))
		a.accV = zeroed(a.accV, len(a.velocity))
		a.sumW, a.sumWTau = 0, 0
	}
	a.folded += len(run)
	for i := range run {
		a.sumW += run[i].w
		a.sumWTau += run[i].w * run[i].tau
	}
	foldDense(a.accD, run, 0)
	foldDense(a.accV, run, 1)
}

// FinishRound implements Aggregator: τ_eff = Σwᵢτᵢ/Σwᵢ ; x_g ← x_g −
// τ_eff·(Σwᵢdᵢ/Σwᵢ) ; velocity = Σwᵢvᵢ/Σwᵢ — the finalize half of the
// two-phase reduce, written straight into the global model on the caller,
// bitwise identical to StreamFoldRefFedNova at any GOMAXPROCS.
func (a *FedNovaAggregator) FinishRound(round int) {
	defer a.RoundSpan(round, "agg.reduce").End()
	a.FinishStream(round)
	if a.folded == 0 || a.sumW == 0 {
		a.folded = 0
		return
	}
	a.tauEff = a.sumWTau / a.sumW
	a.Global.EachStateRange(models.ScopeAll, 0, len(a.accD), a.stepSpan)
	tensor.VecDivF64ToF32(a.velocity, a.accV, a.sumW, false)
	a.folded = 0
	a.sumW, a.sumWTau = 0, 0
}

// stepInto is FinishRound's span callback: span = f32(f64(span) −
// τ_eff·(Σwᵢdᵢ/Σwᵢ)).
func (a *FedNovaAggregator) stepInto(off int, span []float32) {
	acc := a.accD[off : off+len(span)]
	for j := range span {
		span[j] = float32(float64(span[j]) - a.tauEff*(acc[j]/a.sumW))
	}
}

// Final implements Aggregator.
func (a *FedNovaAggregator) Final() []byte {
	return comm.EncodeDense(a.Global.State(models.ScopeAll))
}

// FedNovaTrainer is the client side: warm-start momentum from the
// broadcast buffer, run local SGD, upload the τ-normalized update, the
// final momentum and the step count.
type FedNovaTrainer struct {
	Telemetered
	Client *Client

	cfg   Config
	upBuf []byte
}

// NewFedNovaTrainer wires a trainer around a client.
func NewFedNovaTrainer(c *Client, cfg Config) *FedNovaTrainer {
	return &FedNovaTrainer{Client: c, cfg: cfg.WithDefaults()}
}

// LocalUpdate implements Trainer.
func (t *FedNovaTrainer) LocalUpdate(round int, payload []byte) []byte {
	sp := t.RoundSpan(round, "client.update")
	defer sp.End()
	m := t.Client.Model
	nState := m.StateLen(models.ScopeAll)
	nVel := nn.ParamCount(m.Params())
	parts, err := comm.SplitPayloads(payload)
	if err != nil || len(parts) != 2 {
		return nil
	}
	globalState, err := comm.DecodeDensePooled(parts[0], nState)
	if err != nil {
		return nil
	}
	vel, err := comm.DecodeDensePooled(parts[1], nVel)
	if err != nil {
		comm.PutF32(globalState)
		return nil
	}
	m.SetState(models.ScopeAll, globalState)
	rng := rand.New(rand.NewSource(ClientSeed(t.cfg.Seed, round, t.Client.ID)))
	opts := t.cfg.localOpts(m.Params(), round)
	opts.Velocity = vel // warm start in, final momentum out
	train := sp.Child("client.train")
	steps := LocalSGD(t.Client, opts, rng)
	train.End()

	localState := m.StateInto(models.ScopeAll, comm.GetF32(nState))
	d := comm.GetF32(nState)
	inv := 1.0 / float64(steps)
	for j := range d {
		d[j] = float32(float64(globalState[j]-localState[j]) * inv)
	}
	comm.PutF32(localState)
	comm.PutF32(globalState)
	encD := t.cfg.encodeDenseInto(comm.GetBuf(t.cfg.denseLen(len(d))), d)
	encV := t.cfg.encodeDenseInto(comm.GetBuf(t.cfg.denseLen(len(vel))), vel)
	var stepsBuf [4]byte
	binary.LittleEndian.PutUint32(stepsBuf[:], uint32(steps))
	t.upBuf = comm.JoinPayloadsInto(t.upBuf, encD, encV, stepsBuf[:])
	comm.PutBuf(encV)
	comm.PutBuf(encD)
	comm.PutF32(d)
	comm.PutF32(vel)
	return t.upBuf
}

// Finish implements Trainer.
func (t *FedNovaTrainer) Finish(payload []byte) {
	if state, err := comm.DecodeDenseAnyInto(nil, payload); err == nil {
		t.Client.Model.SetState(models.ScopeAll, state)
	}
}
