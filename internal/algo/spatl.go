package algo

import (
	"encoding/binary"
	"math/rand"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/prune"
	"spatl/internal/rl"
)

// SPATLOptions configures SPATL. The zero value enables everything with
// the paper's defaults; the Disable* switches drive the ablation
// studies (§V-F).
type SPATLOptions struct {
	// DisableSelection uploads the full encoder instead of the salient
	// subset (Fig. 4 ablation).
	DisableSelection bool
	// DisableTransfer shares the predictor as well as the encoder — a
	// uniform model, as the baselines use (Fig. 5a ablation).
	DisableTransfer bool
	// DisableGradControl removes the control-variate correction
	// (Fig. 5b ablation).
	DisableGradControl bool

	// FLOPsBudget is the agent's sub-network FLOPs constraint as a
	// fraction of the full model (default 0.6).
	FLOPsBudget float64
	// AgentCfg configures the selection agent.
	AgentCfg rl.AgentConfig
	// Pretrained, when non-nil, initializes every client's agent from
	// pre-trained weights; fine-tuning then updates only the MLP heads,
	// as in §V-A.
	Pretrained []float32
	// FineTuneRounds is the number of initial communication rounds during
	// which selected clients fine-tune their agents (default 10).
	FineTuneRounds int
	// FineTuneEpisodes is the rollout batch per fine-tune update
	// (default 4).
	FineTuneEpisodes int
}

// WithDefaults fills zero fields with the paper's defaults.
func (o SPATLOptions) WithDefaults() SPATLOptions {
	if o.FLOPsBudget == 0 {
		o.FLOPsBudget = 0.6
	}
	if o.FineTuneRounds == 0 {
		o.FineTuneRounds = 10
	}
	if o.FineTuneEpisodes == 0 {
		o.FineTuneEpisodes = 4
	}
	return o
}

// Scope returns the communication scope: encoder-only normally, the full
// model when transfer learning is disabled.
func (o SPATLOptions) Scope() models.Scope {
	if o.DisableTransfer {
		return models.ScopeAll
	}
	return models.ScopeEncoder
}

// CtrlParams returns the parameters subject to gradient control — the
// generic (encoder) parameters (§IV-C), or all parameters when transfer
// is disabled.
func (o SPATLOptions) CtrlParams(m *models.SplitModel) []*nn.Param {
	if o.DisableTransfer {
		return m.Params()
	}
	return m.EncoderParams()
}

// SPATLAggregator is the server side of SPATL: per-index averaged
// aggregation of salient encoder deltas (eq. 12) and the 1/N-scaled
// control-variate update at the uploaded indices (eq. 11). Each upload
// folds on the caller in one walk over its ranges; FinishRound averages
// straight into the global model's parameters and Broadcast encodes
// straight from them, so a warm server round allocates nothing.
type SPATLAggregator struct {
	Stream[spatlUpload]
	Global *models.SplitModel
	Opts   SPATLOptions

	cfg    Config
	c      []float32 // server control variate over encoder trainable params
	bcast  []byte
	bstate []byte    // the state part of bcast, while Broadcast encodes it
	acc    []float64 // per-index Σ of salient deltas, folded on arrival
	accC   []float64 // per-index Σ of control deltas
	count  []int32   // per-index contributor count, reused across rounds
	folded int

	// Span callbacks, bound once.
	averageSpan, encodeSpan func(off int, span []float32)
}

// spatlUpload is one client's decoded sparse contribution.
type spatlUpload struct {
	dW, dC *comm.Sparse
}

// NewSPATLAggregator wires the aggregator around the global model.
// cfg.NumClients must be the federation size N (eq. 11 scales by 1/N).
func NewSPATLAggregator(global *models.SplitModel, opts SPATLOptions, cfg Config) *SPATLAggregator {
	opts = opts.WithDefaults()
	a := &SPATLAggregator{
		Global: global,
		Opts:   opts,
		cfg:    cfg.WithDefaults(),
		c:      make([]float32, nn.ParamCount(opts.CtrlParams(global))),
	}
	a.Init(a.parseUpload, a.fold, func(u spatlUpload) {
		comm.PutSparse(u.dW)
		comm.PutSparse(u.dC)
	}, nil)
	a.averageSpan, a.encodeSpan = a.averageInto, a.encodeFrom
	return a
}

// ControlVariate exposes the server control variate c (read-only use).
func (a *SPATLAggregator) ControlVariate() []float32 { return a.c }

// Broadcast implements Aggregator: the shared-scope model state, joined
// (comm.JoinPayloads' framing) with the server control variate unless
// gradient control is disabled. At full precision the state part is
// encoded straight from the model's parameter spans.
func (a *SPATLAggregator) Broadcast(round int) []byte {
	defer a.RoundSpan(round, "agg.broadcast").End()
	scope := a.Opts.Scope()
	n := a.Global.StateLen(scope)
	stateLen := a.cfg.denseLen(n)
	size := 4 + stateLen
	if !a.Opts.DisableGradControl {
		size += 4 + a.cfg.denseLen(len(a.c))
	}
	if cap(a.bcast) < size {
		a.bcast = make([]byte, size)
	}
	a.bcast = a.bcast[:size]
	binary.LittleEndian.PutUint32(a.bcast, uint32(stateLen))
	if a.cfg.HalfPrecision {
		state := a.Global.StateInto(scope, comm.GetF32(n))
		comm.EncodeDenseF16Into(a.bcast[4:4], state)
		comm.PutF32(state)
	} else {
		a.bstate = comm.DenseHeaderInto(a.bcast[4:4], n)
		a.Global.EachStateRange(scope, 0, n, a.encodeSpan)
		a.bstate = nil
	}
	if ctrl := a.bcast[4+stateLen:]; len(ctrl) > 0 {
		binary.LittleEndian.PutUint32(ctrl, uint32(len(ctrl)-4))
		a.cfg.encodeDenseInto(ctrl[4:4], a.c)
	}
	a.ObserveSize("payload.down", len(a.bcast))
	return a.bcast
}

// encodeFrom is Broadcast's span callback.
func (a *SPATLAggregator) encodeFrom(off int, span []float32) {
	comm.PutDenseValues(a.bstate, off, span)
}

// parseUpload decodes one sparse delta, joined with a sparse control
// delta unless gradient control is disabled, into pooled buffers the
// upload owns. A bad control part keeps the weight delta — the model
// update is still sound.
func (a *SPATLAggregator) parseUpload(_ uint32, _ int, payload []byte) (spatlUpload, bool) {
	var buf [2][]byte
	parts := buf[:2]
	if a.Opts.DisableGradControl {
		parts = buf[:1]
	}
	if comm.SplitPayloadsInto(parts, payload) != nil {
		return spatlUpload{}, false
	}
	dW := comm.GetSparse(len(parts[0]))
	if err := comm.DecodeSparseAnyInto(dW, parts[0]); err != nil {
		comm.PutSparse(dW)
		return spatlUpload{}, false
	}
	var dC *comm.Sparse
	if len(parts) == 2 {
		dC = comm.GetSparse(len(parts[1]))
		if err := comm.DecodeSparseAnyInto(dC, parts[1]); err != nil {
			comm.PutSparse(dC)
			dC = nil // keep dW: the model update is still sound
		}
	}
	return spatlUpload{dW: dW, dC: dC}, true
}

// scatterAccum folds one sparse upload into the float64 accumulator — and
// bumps the per-index contributor count, when count is non-nil — in one
// walk over its ranges. Indices at or past len(acc) are ignored.
func scatterAccum(acc []float64, count []int32, s *comm.Sparse) {
	off := 0
	for _, r := range s.Ranges {
		if uint64(r.Start) >= uint64(len(acc)) {
			return
		}
		start := int(r.Start)
		n := int(min(uint64(r.Len), uint64(len(acc)-start)))
		for k, v := range s.Values[off : off+n] {
			acc[start+k] += float64(v)
		}
		if count != nil {
			for k := range count[start : start+n] {
				count[start+k]++
			}
		}
		off += int(r.Len)
	}
}

// fold scatters a run's salient deltas into the float64 accumulators
// and bumps the per-index contributor counts, one upload at a time on
// the caller. Each index takes one add per upload, in fold order, so the
// result is the serial reference's (StreamFoldRefSPATL) bit for bit.
func (a *SPATLAggregator) fold(run []spatlUpload) {
	if a.folded == 0 {
		nState := a.Global.StateLen(a.Opts.Scope())
		a.acc, a.count = zeroed(a.acc, nState), zeroed(a.count, nState)
		a.accC = zeroed(a.accC, len(a.c))
	}
	a.folded += len(run)
	for _, u := range run {
		scatterAccum(a.acc, a.count, u.dW)
		if u.dC != nil && !a.Opts.DisableGradControl {
			scatterAccum(a.accC, nil, u.dC)
		}
	}
}

// FinishRound implements Aggregator: eq. 12 per-index averaging over
// the folded salient deltas, written straight into the global model's
// parameters, then eq. 11 on the control variate — the finalize half of
// the two-phase reduce, one pass on the caller, bitwise identical to
// StreamFoldRefSPATL.
func (a *SPATLAggregator) FinishRound(round int) {
	defer a.RoundSpan(round, "agg.reduce").End()
	a.FinishStream(round)
	if a.folded == 0 {
		return
	}
	scope := a.Opts.Scope()
	a.Global.EachStateRange(scope, 0, a.Global.StateLen(scope), a.averageSpan)
	if !a.Opts.DisableGradControl {
		invN := float64(a.cfg.NumClients)
		for j := range a.c {
			a.c[j] = float32(float64(a.c[j]) + a.accC[j]/invN)
		}
	}
	a.folded = 0
}

// averageInto is FinishRound's span callback: every index with a
// contributor moves by the mean of its folded deltas.
func (a *SPATLAggregator) averageInto(off int, span []float32) {
	acc, count := a.acc[off:off+len(span)], a.count[off:off+len(span)]
	for k, n := range count {
		if n > 0 {
			span[k] = span[k] + float32(acc[k]/float64(n))
		}
	}
}

// Final implements Aggregator: the shared-scope state, dense.
func (a *SPATLAggregator) Final() []byte {
	return comm.EncodeDense(a.Global.State(a.Opts.Scope()))
}

// InstallClientModel writes what a client deploys into m: the current
// global state of the shared scope under the client's own private
// predictor (§IV-A). Inference acceleration (§V-D) additionally prunes
// this model to the client's salient sub-network; see prune.ZeroPruned /
// prune.Extract and the inference experiment.
func (a *SPATLAggregator) InstallClientModel(_ int, m *models.SplitModel) {
	installScope(a.Global, m, a.Opts.Scope())
}

// installScope copies global's state over scope into m, through a pooled
// buffer.
func installScope(global, m *models.SplitModel, scope models.Scope) {
	st := global.StateInto(scope, comm.GetF32(global.StateLen(scope)))
	m.SetState(scope, st)
	comm.PutF32(st)
}

// SPATLTrainer is the client side of SPATL: install the shared encoder,
// run control-corrected local SGD through the private predictor, run the
// selection agent on the trained encoder, and upload only the salient
// parameter deltas and their index ranges. The selection and the agent's
// graph and caches live as long as the trainer and are refilled every
// round; the state-sized buffers of an update come from the comm pool
// and go back to it, so a client between rounds holds none of them.
type SPATLTrainer struct {
	Telemetered
	Client *Client
	Opts   SPATLOptions

	// LastSelection records the most recent salient selection, for the
	// inference-acceleration analysis (§V-D). It is the trainer's own and
	// valid until the next LocalUpdate.
	LastSelection *prune.Selection

	cfg   Config
	agent *rl.Agent  // lazily created fine-tuned selection agent
	ppo   *rl.PPO    // the agent's fine-tuner, reset at each fine-tune round
	env   *prune.Env // the agent's pruning environment, with its workspaces
	upBuf []byte

	sel        prune.Selection
	ctrlRanges []comm.Range
}

// NewSPATLTrainer wires a trainer around a client, initializing its
// control variate over the gradient-control scope.
func NewSPATLTrainer(c *Client, opts SPATLOptions, cfg Config) *SPATLTrainer {
	opts = opts.WithDefaults()
	if c.Control == nil {
		c.Control = make([]float32, nn.ParamCount(opts.CtrlParams(c.Model)))
	}
	return &SPATLTrainer{Client: c, Opts: opts, cfg: cfg.WithDefaults()}
}

// LocalUpdate implements Trainer.
func (t *SPATLTrainer) LocalUpdate(round int, payload []byte) []byte {
	sp := t.RoundSpan(round, "client.update")
	defer sp.End()
	c := t.Client
	m := c.Model
	scope := t.Opts.Scope()
	nState := m.StateLen(scope)
	gradControl := !t.Opts.DisableGradControl
	var buf [2][]byte
	parts := buf[:1]
	if gradControl {
		parts = buf[:2]
	}
	if comm.SplitPayloadsInto(parts, payload) != nil {
		return nil
	}
	// ➊ install the shared encoder (and control variate).
	globalState, err := comm.DecodeDensePooled(parts[0], nState)
	if err != nil {
		return nil
	}
	m.SetState(scope, globalState)
	var serverC []float32
	if gradControl {
		serverC, err = comm.DecodeDensePooled(parts[1], len(c.Control))
		if err != nil {
			comm.PutF32(globalState)
			return nil
		}
	}

	rng := rand.New(rand.NewSource(ClientSeed(t.cfg.Seed, round, c.ID)))

	// ➋ local update: transfer the encoder's knowledge through the local
	// predictor; gradient control corrects only the generic (encoder)
	// parameters.
	ctrlP := t.Opts.CtrlParams(m)
	nCtrl := nn.ParamCount(ctrlP)
	opts := t.cfg.localOpts(m.Params(), round)
	if gradControl {
		opts.Hook = addControl(serverC, c.Control, ctrlP)
	}
	gBefore := nn.FlattenParamsInto(comm.GetF32(nCtrl), ctrlP)
	train := sp.Child("client.train")
	steps := LocalSGD(c, opts, rng)
	train.End()

	// Control variate update (option II of SCAFFOLD, over the generic
	// parameters only), in place.
	var dC []float32
	if gradControl {
		localCtrl := nn.FlattenParamsInto(comm.GetF32(nCtrl), ctrlP)
		inv := 1.0 / (float64(steps) * EffectiveLR(t.cfg.LRAt(round), t.cfg.Momentum))
		dC = comm.GetF32(nCtrl)
		for j := 0; j < nCtrl; j++ {
			newCi := c.Control[j] - serverC[j] + float32(float64(gBefore[j]-localCtrl[j])*inv)
			dC[j] = newCi - c.Control[j]
			c.Control[j] = newCi
		}
		comm.PutF32(localCtrl)
		comm.PutF32(serverC)
	}
	comm.PutF32(gBefore)

	// ➌ salient parameter selection on the trained encoder, consuming the
	// same rng stream as local training so both transports replay the
	// identical sequence.
	selSpan := sp.Child("client.select")
	sel := t.selectSalient(round, rng)
	selSpan.End()
	t.LastSelection = sel

	// ➍ upload only the salient parameter deltas and their indices.
	localState := m.StateInto(scope, comm.GetF32(nState))
	dW := comm.GetF32(len(localState))
	for j := range localState {
		dW[j] = localState[j] - globalState[j]
	}
	comm.PutF32(localState)
	comm.PutF32(globalState)
	sw := comm.Sparse{Values: comm.GetF32(nState)[:0]}
	comm.GatherSparseInto(&sw, dW, sel.Ranges)
	bufW := t.cfg.encodeSparseInto(comm.GetBuf(t.cfg.sparseLen(&sw)), &sw)
	comm.PutF32(dW)
	if gradControl {
		t.ctrlRanges = clipRangesInto(t.ctrlRanges, sel.Ranges, nCtrl)
		sc := comm.Sparse{Values: comm.GetF32(nCtrl)[:0]}
		comm.GatherSparseInto(&sc, dC, t.ctrlRanges)
		bufC := t.cfg.encodeSparseInto(comm.GetBuf(t.cfg.sparseLen(&sc)), &sc)
		t.upBuf = comm.JoinPayloadsInto(t.upBuf, bufW, bufC)
		comm.PutBuf(bufC)
		comm.PutF32(sc.Values[:0])
		comm.PutF32(dC)
	} else {
		t.upBuf = comm.JoinPayloadsInto(t.upBuf, bufW)
	}
	comm.PutBuf(bufW)
	comm.PutF32(sw.Values[:0])
	return t.upBuf
}

// selectSalient runs the client's selection agent: fine-tune (head-only
// PPO) during the first FineTuneRounds rounds, then act greedily. With
// selection disabled, everything is salient. The selection is the
// trainer's own, refilled every round.
func (t *SPATLTrainer) selectSalient(round int, rng *rand.Rand) *prune.Selection {
	m := t.Client.Model
	units := m.PrunableUnits()
	if t.Opts.DisableSelection || len(units) == 0 {
		ratios := make([]float64, len(units))
		for i := range ratios {
			ratios[i] = 1
		}
		return prune.SelectInto(&t.sel, m, ratios)
	}
	if t.agent == nil {
		cfg := t.Opts.AgentCfg
		cfg.Seed += int64(t.Client.ID)
		t.agent = rl.NewAgent(cfg)
		if t.Opts.Pretrained != nil {
			t.agent.Load(t.Opts.Pretrained)
		}
		t.env = prune.NewEnv(m, t.Client.Val, t.Opts.FLOPsBudget)
	}
	if round < t.Opts.FineTuneRounds {
		// Each round fine-tunes with a fresh optimizer, as a new PPO
		// would, without building one.
		if t.ppo == nil {
			t.ppo = rl.NewPPO(t.agent, t.Opts.Pretrained != nil)
		} else {
			t.ppo.Reset()
		}
		rl.Train(t.ppo, t.env, 1, t.Opts.FineTuneEpisodes, rng)
	}
	action := rl.BestAction(t.agent, t.env)
	return prune.SelectInto(&t.sel, m, action)
}

// Finish implements Trainer.
func (t *SPATLTrainer) Finish(payload []byte) {
	if state, err := comm.DecodeDenseAnyInto(nil, payload); err == nil {
		t.Client.Model.SetState(t.Opts.Scope(), state)
	}
}
