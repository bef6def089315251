package algo

import (
	"math/rand"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/prune"
	"spatl/internal/rl"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
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
// control-variate update at the uploaded indices (eq. 11).
type SPATLAggregator struct {
	Telemetered
	Stream[spatlUpload]
	Global *models.SplitModel
	Opts   SPATLOptions

	cfg      Config
	c        []float32 // server control variate over encoder trainable params
	bcast    []byte
	acc      []float64 // per-index Σ of salient deltas, folded on arrival
	accC     []float64 // per-index Σ of control deltas
	count    []int32   // per-index contributor count, reused across rounds
	folded   int
	curRound int
	dropped  telemetry.Counter
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
	a.Init(oneByOne(a.fold), func(u spatlUpload) {
		comm.PutSparse(u.dW)
		if u.dC != nil {
			comm.PutSparse(u.dC)
		}
	}, nil)
	return a
}

// ControlVariate exposes the server control variate c (read-only use).
func (a *SPATLAggregator) ControlVariate() []float32 { return a.c }

// Dropped reports how many malformed uploads have been discarded.
func (a *SPATLAggregator) Dropped() int64 { return a.dropped.Value() }

// SetTelemetry implements Wirer, additionally exposing the drop counter
// through the registry — the same counter Dropped reads.
func (a *SPATLAggregator) SetTelemetry(s *telemetry.Set) {
	a.Telemetered.SetTelemetry(s)
	if s != nil && s.Reg != nil {
		s.Reg.Attach("algo.uploads_dropped", &a.dropped)
		a.WireStream(s.Reg)
	}
}

// Broadcast implements Aggregator: the shared-scope model state, joined
// with the server control variate unless gradient control is disabled.
func (a *SPATLAggregator) Broadcast(round int) []byte {
	defer a.RoundSpan(round, "agg.broadcast").End()
	scope := a.Opts.Scope()
	n := a.Global.StateLen(scope)
	state := a.Global.StateInto(scope, comm.GetF32(n))
	encS := a.cfg.encodeDenseInto(comm.GetBuf(a.cfg.denseLen(n)), state)
	if a.Opts.DisableGradControl {
		a.bcast = comm.JoinPayloadsInto(a.bcast, encS)
	} else {
		encC := a.cfg.encodeDenseInto(comm.GetBuf(a.cfg.denseLen(len(a.c))), a.c)
		a.bcast = comm.JoinPayloadsInto(a.bcast, encS, encC)
		comm.PutBuf(encC)
	}
	comm.PutBuf(encS)
	comm.PutF32(state)
	a.ObserveSize("payload.down", len(a.bcast))
	return a.bcast
}

// decodeUpload decodes one sparse delta, joined with a sparse control
// delta unless gradient control is disabled. A bad control part keeps
// the weight delta — the model update is still sound. The shared front
// half of Collect, CollectLate and CollectBatch.
func (a *SPATLAggregator) decodeUpload(payload []byte) (spatlUpload, bool) {
	a.ObserveSize("payload.up", len(payload))
	wantParts := 2
	if a.Opts.DisableGradControl {
		wantParts = 1
	}
	parts, err := comm.SplitPayloads(payload)
	if err != nil || len(parts) != wantParts {
		a.dropped.Add(1)
		return spatlUpload{}, false
	}
	dW := &comm.Sparse{Values: comm.GetF32(len(parts[0]) / 4)[:0]}
	if err := comm.DecodeSparseAnyInto(dW, parts[0]); err != nil {
		a.dropped.Add(1)
		comm.PutSparse(dW)
		return spatlUpload{}, false
	}
	var dC *comm.Sparse
	if wantParts == 2 {
		dC = &comm.Sparse{Values: comm.GetF32(len(parts[1]) / 4)[:0]}
		if err := comm.DecodeSparseAnyInto(dC, parts[1]); err != nil {
			comm.PutSparse(dC)
			dC = nil // keep dW: the model update is still sound
		}
	}
	return spatlUpload{dW: dW, dC: dC}, true
}

// scatterAccumRange folds one sparse upload's values covering [lo,hi)
// into the float64 accumulator and the per-index contributor count —
// the streaming float64 counterpart of comm.ScatterAddRange.
func scatterAccumRange(acc []float64, count []int32, s *comm.Sparse, lo, hi int) {
	off := 0
	for _, r := range s.Ranges {
		rs := int(r.Start)
		re := rs + int(r.Len)
		if rs >= hi {
			return
		}
		if re > lo {
			cs, ce := rs, re
			if cs < lo {
				cs = lo
			}
			if ce > hi {
				ce = hi
			}
			vals := s.Values[off+(cs-rs) : off+(ce-rs)]
			for k, v := range vals {
				acc[cs+k] += float64(v)
				count[cs+k]++
			}
		}
		off += int(r.Len)
	}
}

// scatterAccumValsRange is scatterAccumRange without the contributor
// count — the control-variate fold (eq. 11 sums, it never averages).
func scatterAccumValsRange(acc []float64, s *comm.Sparse, lo, hi int) {
	off := 0
	for _, r := range s.Ranges {
		rs := int(r.Start)
		re := rs + int(r.Len)
		if rs >= hi {
			return
		}
		if re > lo {
			cs, ce := rs, re
			if cs < lo {
				cs = lo
			}
			if ce > hi {
				ce = hi
			}
			vals := s.Values[off+(cs-rs) : off+(ce-rs)]
			for k, v := range vals {
				acc[cs+k] += float64(v)
			}
		}
		off += int(r.Len)
	}
}

// fold scatters one upload's salient deltas into the float64
// accumulators and bumps the per-index contributor counts.
func (a *SPATLAggregator) fold(u spatlUpload) {
	defer a.RoundSpan(a.curRound, "agg.fold").End()
	nState := a.Global.StateLen(a.Opts.Scope())
	if a.folded == 0 {
		if cap(a.acc) < nState {
			a.acc = make([]float64, nState)
		}
		a.acc = a.acc[:nState]
		if cap(a.count) < nState {
			a.count = make([]int32, nState)
		}
		a.count = a.count[:nState]
		for j := range a.acc {
			a.acc[j] = 0
			a.count[j] = 0
		}
		if cap(a.accC) < len(a.c) {
			a.accC = make([]float64, len(a.c))
		}
		a.accC = a.accC[:len(a.c)]
		for j := range a.accC {
			a.accC[j] = 0
		}
	}
	a.folded++
	tensor.Parallel(nState, func(lo, hi int) {
		scatterAccumRange(a.acc, a.count, u.dW, lo, hi)
	})
	if u.dC != nil && !a.Opts.DisableGradControl {
		tensor.Parallel(len(a.c), func(lo, hi int) {
			scatterAccumValsRange(a.accC, u.dC, lo, hi)
		})
	}
}

// Collect implements Aggregator: decode, then fold through the
// streaming cursor; the sparse buffers release right after the fold.
func (a *SPATLAggregator) Collect(round int, client uint32, trainSize int, payload []byte) {
	defer a.RoundSpan(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(payload); ok {
		a.Ingest(client, u)
	}
}

// CollectLate implements Aggregator: a carried-over straggler
// upload folds at its delivery position, outside the cursor.
func (a *SPATLAggregator) CollectLate(round int, client uint32, trainSize int, payload []byte) {
	defer a.RoundSpan(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(payload); ok {
		a.FoldNow(u)
	}
}

// CollectBatch implements BatchCollector: the Collect decode run
// concurrently over a whole batch, then ingested in upload order.
func (a *SPATLAggregator) CollectBatch(round int, ups []Upload) {
	defer a.RoundSpan(round, "agg.collect").End()
	a.curRound = round
	type entry struct {
		client uint32
		u      spatlUpload
	}
	entries := decodeBatch(ups, func(up Upload) (entry, bool) {
		u, ok := a.decodeUpload(up.Payload)
		return entry{client: up.Client, u: u}, ok
	})
	for _, e := range entries {
		a.Ingest(e.client, e.u)
	}
}

// FinishRound implements Aggregator: eq. 12 per-index averaging over
// the folded salient deltas, then eq. 11 on the control variate — the
// finalize half of the two-phase reduce, bitwise identical to
// StreamFoldRefSPATL at any GOMAXPROCS.
func (a *SPATLAggregator) FinishRound(round int) {
	defer a.RoundSpan(round, "agg.reduce").End()
	a.curRound = round
	a.FinishStream()
	if a.folded == 0 {
		return
	}
	scope := a.Opts.Scope()
	nState := a.Global.StateLen(scope)
	globalState := a.Global.StateInto(scope, comm.GetF32(nState))
	newState := comm.GetF32(nState)
	tensor.Parallel(nState, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if a.count[j] > 0 {
				newState[j] = globalState[j] + float32(a.acc[j]/float64(a.count[j]))
			} else {
				newState[j] = globalState[j]
			}
		}
	})
	a.Global.SetState(scope, newState)
	comm.PutF32(newState)
	comm.PutF32(globalState)

	if !a.Opts.DisableGradControl {
		invN := float64(a.cfg.NumClients)
		tensor.Parallel(len(a.c), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				a.c[j] = float32(float64(a.c[j]) + a.accC[j]/invN)
			}
		})
	}
	a.folded = 0
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
// parameter deltas and their index ranges.
type SPATLTrainer struct {
	Telemetered
	Client *Client
	Opts   SPATLOptions

	// LastSelection records the most recent salient selection, for the
	// inference-acceleration analysis (§V-D).
	LastSelection *prune.Selection

	cfg   Config
	agent *rl.Agent  // lazily created fine-tuned selection agent
	env   *prune.Env // the agent's pruning environment, with its workspaces
	upBuf []byte
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
	wantParts := 1
	if gradControl {
		wantParts = 2
	}
	parts, err := comm.SplitPayloads(payload)
	if err != nil || len(parts) != wantParts {
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
	gBefore := nn.FlattenParams(ctrlP)
	train := sp.Child("client.train")
	steps := LocalSGD(c, opts, rng)
	train.End()

	// Control variate update (option II of SCAFFOLD, over the generic
	// parameters only).
	var dC []float32
	if gradControl {
		localCtrl := nn.FlattenParams(ctrlP)
		inv := 1.0 / (float64(steps) * EffectiveLR(t.cfg.LRAt(round), t.cfg.Momentum))
		newCi := make([]float32, nCtrl)
		dC = comm.GetF32(nCtrl)
		for j := 0; j < nCtrl; j++ {
			newCi[j] = c.Control[j] - serverC[j] + float32(float64(gBefore[j]-localCtrl[j])*inv)
			dC[j] = newCi[j] - c.Control[j]
		}
		c.Control = newCi
		comm.PutF32(serverC)
	}

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
	var sw comm.Sparse
	comm.GatherSparseInto(&sw, dW, sel.Ranges)
	bufW := t.cfg.encodeSparseInto(comm.GetBuf(t.cfg.sparseLen(&sw)), &sw)
	comm.PutF32(dW)
	if gradControl {
		ctrlRanges := ClipRanges(sel.Ranges, nCtrl)
		var sc comm.Sparse
		comm.GatherSparseInto(&sc, dC, ctrlRanges)
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
// selection disabled, everything is salient.
func (t *SPATLTrainer) selectSalient(round int, rng *rand.Rand) *prune.Selection {
	m := t.Client.Model
	units := m.PrunableUnits()
	if t.Opts.DisableSelection || len(units) == 0 {
		ratios := make([]float64, len(units))
		for i := range ratios {
			ratios[i] = 1
		}
		return prune.Select(m, ratios)
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
		ppo := rl.NewPPO(t.agent, t.Opts.Pretrained != nil)
		rl.Train(ppo, t.env, 1, t.Opts.FineTuneEpisodes, rng)
	}
	action := rl.BestAction(t.agent, t.env)
	return prune.Select(m, action)
}

// Finish implements Trainer.
func (t *SPATLTrainer) Finish(payload []byte) {
	if state, err := comm.DecodeDenseAnyInto(nil, payload); err == nil {
		t.Client.Model.SetState(t.Opts.Scope(), state)
	}
}
