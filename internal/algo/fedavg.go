package algo

import (
	"math/rand"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// FedAvgAggregator is the server side of FedAvg (McMahan et al.):
// data-size-weighted model averaging over dense checkpoint payloads,
// folded on arrival through the streaming engine — each upload adds its
// unscaled wᵢ·xᵢ term into the float64 accumulator straight from its
// wire bytes (see dense.go); FinishRound finalizes with ÷Σw straight into
// the global model's parameters, and Broadcast encodes straight from
// them. FedProx shares it — the proximal term is purely client-side.
type FedAvgAggregator struct {
	Stream[denseUpload]
	Global *models.SplitModel

	cfg Config
	// acc is the unscaled Σ wᵢ·xᵢ, folded on arrival. It is all zeros
	// whenever no upload of the round has been folded: FinishRound
	// clears it as it reads it, so a round's first fold needs no clear.
	acc    []float64
	sumW   float64
	folded int
	bcast  []byte // reusable broadcast body

	// Method values bound once: FinishRound's Parallel body and the span
	// callbacks of Broadcast and FinishRound, whose operands are fields.
	finishRange func(lo, hi int)
	finishSpan  func(off int, span []float32)
	encodeSpan  func(off int, span []float32)
}

// NewFedAvgAggregator wires the aggregator around the global model.
func NewFedAvgAggregator(global *models.SplitModel, cfg Config) *FedAvgAggregator {
	a := &FedAvgAggregator{Global: global, cfg: cfg.WithDefaults()}
	initDense(&a.Stream, a.parseUpload, a.foldUploads)
	a.finishRange, a.finishSpan, a.encodeSpan = a.finishStateRange, a.divideInto, a.encodeFrom
	return a
}

// Broadcast implements Aggregator. At full precision it encodes the
// model's parameter spans straight into the broadcast body.
func (a *FedAvgAggregator) Broadcast(round int) []byte {
	defer a.RoundSpan(round, "agg.broadcast").End()
	n := a.Global.StateLen(models.ScopeAll)
	if a.cfg.HalfPrecision {
		state := a.Global.StateInto(models.ScopeAll, comm.GetF32(n))
		a.bcast = comm.EncodeDenseF16Into(a.bcast, state)
		comm.PutF32(state)
	} else {
		a.bcast = comm.DenseHeaderInto(a.bcast, n)
		a.Global.EachStateRange(models.ScopeAll, 0, n, a.encodeSpan)
	}
	a.ObserveSize("payload.down", len(a.bcast))
	return a.bcast
}

// encodeFrom is Broadcast's span callback.
func (a *FedAvgAggregator) encodeFrom(off int, span []float32) {
	comm.PutDenseValues(a.bcast, off, span)
}

// parseUpload checks one upload: a single dense payload of the model's
// state length.
func (a *FedAvgAggregator) parseUpload(_ uint32, trainSize int, payload []byte) (denseUpload, bool) {
	v, err := comm.ViewDense(payload)
	if err != nil || v.Len() != a.Global.StateLen(models.ScopeAll) {
		return denseUpload{}, false
	}
	return denseUpload{raw: payload, part: [2]comm.DenseView{v}, w: float64(trainSize)}, true
}

// foldUploads adds a run's unscaled wᵢ·xᵢ terms into the float64
// accumulator, in run order. Folds run only on the collect goroutine,
// in the order the streaming cursor dictates; per index the blocked
// accumulation is independent, so the chain is bitwise identical at any
// GOMAXPROCS.
func (a *FedAvgAggregator) foldUploads(run []denseUpload) {
	if n := a.Global.StateLen(models.ScopeAll); len(a.acc) != n {
		a.acc = make([]float64, n)
	}
	a.folded += len(run)
	for i := range run {
		a.sumW += run[i].w
	}
	foldDense(a.acc, run, 0)
}

// FinishRound implements Aggregator: drain anything still staged, then
// finalize the accumulated Σwᵢxᵢ with a single ÷Σw per index, written
// into the global model and clearing the accumulator as it goes —
// bitwise identical to StreamFoldRefFedAvg at any GOMAXPROCS.
func (a *FedAvgAggregator) FinishRound(round int) {
	defer a.RoundSpan(round, "agg.reduce").End()
	a.FinishStream(round)
	if a.folded == 0 || a.sumW == 0 {
		// Zero-weight folds leave 0·x terms, NaN where x was ±Inf or NaN.
		clear(a.acc)
	} else {
		tensor.Parallel(len(a.acc), a.finishRange)
	}
	a.folded = 0
	a.sumW = 0
}

// finishStateRange is FinishRound's Parallel body over state indices
// [lo, hi).
func (a *FedAvgAggregator) finishStateRange(lo, hi int) {
	a.Global.EachStateRange(models.ScopeAll, lo, hi, a.finishSpan)
}

// divideInto is finishStateRange's span callback: span = f32(acc/Σw),
// acc cleared.
func (a *FedAvgAggregator) divideInto(off int, span []float32) {
	tensor.VecDivF64ToF32(span, a.acc[off:off+len(span)], a.sumW, true)
}

// Final implements Aggregator.
func (a *FedAvgAggregator) Final() []byte {
	return comm.EncodeDense(a.Global.State(models.ScopeAll))
}

// FedAvgTrainer is the client side of FedAvg and (with prox set)
// FedProx: install the broadcast model, run local SGD on the private
// shard, upload the trained weights. The upload is a single dense
// payload, so FedProx's per-round traffic equals FedAvg's exactly.
type FedAvgTrainer struct {
	Telemetered
	Client *Client

	// FinalModel is populated by Finish.
	FinalModel []float32

	cfg   Config
	prox  bool
	upBuf []byte // reusable upload body
}

// NewFedAvgTrainer wires a trainer around a client.
func NewFedAvgTrainer(c *Client, cfg Config) *FedAvgTrainer {
	return &FedAvgTrainer{Client: c, cfg: cfg.WithDefaults()}
}

// NewFedProxTrainer is NewFedAvgTrainer plus the proximal term μ(w −
// w_global) on every local gradient (Li et al.).
func NewFedProxTrainer(c *Client, cfg Config) *FedAvgTrainer {
	t := NewFedAvgTrainer(c, cfg)
	t.prox = true
	if t.cfg.ProxMu == 0 {
		t.cfg.ProxMu = 0.01
	}
	return t
}

// LocalUpdate implements Trainer.
func (t *FedAvgTrainer) LocalUpdate(round int, payload []byte) []byte {
	sp := t.RoundSpan(round, "client.update")
	defer sp.End()
	m := t.Client.Model
	n := m.StateLen(models.ScopeAll)
	state, err := comm.DecodeDensePooled(payload, n)
	if err != nil {
		return nil
	}
	m.SetState(models.ScopeAll, state)
	comm.PutF32(state)
	opts := t.cfg.localOpts(m.Params(), round)
	if t.prox {
		opts.Hook = addProx(t.cfg.ProxMu, nn.FlattenParams(m.Params()))
	}
	rng := rand.New(rand.NewSource(ClientSeed(t.cfg.Seed, round, t.Client.ID)))
	train := sp.Child("client.train")
	LocalSGD(t.Client, opts, rng)
	train.End()
	local := m.StateInto(models.ScopeAll, comm.GetF32(n))
	t.upBuf = t.cfg.encodeDenseInto(t.upBuf, local)
	comm.PutF32(local)
	return t.upBuf
}

// Finish implements Trainer.
func (t *FedAvgTrainer) Finish(payload []byte) {
	if state, err := comm.DecodeDenseAnyInto(nil, payload); err == nil {
		t.Client.Model.SetState(models.ScopeAll, state)
		t.FinalModel = state
	}
}
