package algo

import (
	"math/rand"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/prune"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// SSFL (sparse-native salient-subnetwork federated learning) decides the
// sparse sub-network ONCE and then never densifies it on the wire:
//
//   - Round 0 is the mask-agreement round. The server broadcasts the
//     dense encoder; every client runs a short local warm-up and uploads
//     its per-channel saliency scores (L1 filter norms). The server
//     reduces the score vectors deterministically in float64, derives a
//     single global channel mask per prunable unit (prune.MaskFromScores)
//     and zeroes the pruned channels of the global model.
//   - Every later round is mask-static. The round after agreement
//     carries the index ranges exactly once (a full sparse frame); from
//     then on both directions move values-only frames — just the packed
//     masked values, no indices, no dense vector anywhere on the path.
//     A values-only frame is a dense-layout vector under its own magic
//     bytes, so the server folds the packed values on the dense upload
//     path (dense.go), straight from the wire bytes, and only the final
//     apply writes the kept entries back into the model.
//
// The mask is decided once, then it is data: it never participates in
// floating-point order, so the packed reduce is bitwise identical to the
// retained dense reference (SSFLReduceReference) at any GOMAXPROCS.
// Client-side, ZeroGradRangesHook keeps the pruned weights at exactly zero
// through every optimizer step; the layers run their one dense route over
// them, and the zeros contribute nothing to any sum.

// SSFLOptions configures SSFL.
type SSFLOptions struct {
	// KeepRatio is the fraction of channels kept per prunable unit when
	// the global mask is derived from the aggregated saliency scores
	// (default 0.5). 1.0 keeps every channel — the mask is full, but the
	// wire path still moves values-only frames.
	KeepRatio float64
}

// WithDefaults fills zero fields.
func (o SSFLOptions) WithDefaults() SSFLOptions {
	if o.KeepRatio == 0 {
		o.KeepRatio = 0.5
	}
	return o
}

// ssflScoreLen is the length of the concatenated per-unit saliency score
// vector a client uploads at the agreement round.
func ssflScoreLen(m *models.SplitModel) int {
	n := 0
	for _, u := range m.PrunableUnits() {
		n += u.Conv.OutC
	}
	return n
}

// ssflScoresInto concatenates each prunable unit's channel saliency
// scores into dst (L1 filter norms, the criterion the mask is agreed on).
func ssflScoresInto(dst []float32, m *models.SplitModel) []float32 {
	dst = dst[:0]
	for _, u := range m.PrunableUnits() {
		for _, s := range prune.ChannelScores(u.Conv) {
			dst = append(dst, float32(s))
		}
	}
	return dst
}

// SSFLAggregator is the server side of SSFL. Both phases upload one
// dense-layout vector — the saliency scores, then the packed kept
// values — so it rides the dense upload path.
type SSFLAggregator struct {
	Stream[denseUpload]
	Global *models.SplitModel
	Opts   SSFLOptions

	cfg   Config
	bcast []byte

	// Mask state, fixed at the end of the agreement round.
	sel       *prune.Selection
	ranges    []comm.Range
	keptN     int
	maskRound int // round whose FinishRound agreed the mask

	// Streaming accumulator: unscaled Σ wᵢ·xᵢ over the round's upload
	// vectors — score vectors during the agreement round, packed masked
	// value vectors afterwards. The phase flips only in FinishRound,
	// after the stream drained, so one accumulator serves both.
	acc    []float64
	sumW   float64
	folded int

	sparseUp   telemetry.Counter // values-only uplink bytes accepted
	sparseDown telemetry.Counter // sparse downlink bytes broadcast
}

// NewSSFLAggregator wires the aggregator around the global model.
func NewSSFLAggregator(global *models.SplitModel, opts SSFLOptions, cfg Config) *SSFLAggregator {
	a := &SSFLAggregator{
		Global:    global,
		Opts:      opts.WithDefaults(),
		cfg:       cfg.WithDefaults(),
		maskRound: -1,
	}
	initDense(&a.Stream, a.parseUpload, a.fold)
	return a
}

// Selection exposes the agreed global selection (nil before agreement).
func (a *SSFLAggregator) Selection() *prune.Selection { return a.sel }

// SetTelemetry implements Wirer, additionally exposing the sparse
// wire-byte counters through the registry.
func (a *SSFLAggregator) SetTelemetry(s *telemetry.Set) {
	a.Stream.SetTelemetry(s)
	if s != nil && s.Reg != nil {
		s.Reg.Attach("comm.sparse_up_bytes", &a.sparseUp)
		s.Reg.Attach("comm.sparse_down_bytes", &a.sparseDown)
	}
}

// Broadcast implements Aggregator: the dense encoder before agreement; a
// full sparse frame (indices travel exactly once) the round right after
// agreement; values-only frames every round thereafter.
func (a *SSFLAggregator) Broadcast(round int) []byte {
	defer a.RoundSpan(round, "agg.broadcast").End()
	n := a.Global.StateLen(models.ScopeEncoder)
	state := a.Global.StateInto(models.ScopeEncoder, comm.GetF32(n))
	if a.sel == nil {
		a.bcast = a.cfg.encodeDenseInto(a.bcast, state)
	} else {
		sw := comm.Sparse{Values: comm.GetF32(a.keptN)[:0]}
		comm.GatherSparseInto(&sw, state, a.ranges)
		if round == a.maskRound+1 {
			a.bcast = a.cfg.encodeSparseInto(a.bcast, &sw)
		} else if a.cfg.HalfPrecision {
			a.bcast = comm.EncodeSparseValsF16Into(a.bcast, sw.Values)
		} else {
			a.bcast = comm.EncodeSparseValsInto(a.bcast, sw.Values)
		}
		a.sparseDown.Add(int64(len(a.bcast)))
		comm.PutF32(sw.Values)
	}
	comm.PutF32(state)
	a.ObserveSize("payload.down", len(a.bcast))
	return a.bcast
}

// parseUpload checks one upload against the round's phase: a dense
// score vector before agreement, a values-only frame of exactly the
// kept entries after it. A stale score upload arriving once the mask is
// agreed fails the check and counts as dropped.
func (a *SSFLAggregator) parseUpload(_ uint32, trainSize int, payload []byte) (denseUpload, bool) {
	var v comm.DenseView
	var err error
	want := a.keptN
	if a.sel == nil {
		v, err = comm.ViewDense(payload)
		want = ssflScoreLen(a.Global)
	} else {
		v, err = comm.ViewSparseVals(payload)
	}
	if err != nil || v.Len() != want {
		return denseUpload{}, false
	}
	return denseUpload{raw: payload, part: [2]comm.DenseView{v}, w: float64(trainSize)}, true
}

// fold adds a run's unscaled wᵢ·xᵢ terms into the float64 accumulator —
// the same fold for both phases, since the vector length (score vs
// packed) is fixed within a round and the phase only flips in
// FinishRound after the stream drained. A values-only upload counts
// toward the sparse uplink bytes here, where it is accepted, so the
// parse stays free of side effects.
func (a *SSFLAggregator) fold(run []denseUpload) {
	if a.folded == 0 {
		a.acc = zeroed(a.acc, run[0].part[0].Len())
		a.sumW = 0
	}
	a.folded += len(run)
	for i := range run {
		a.sumW += run[i].w
		if a.sel != nil {
			a.sparseUp.Add(int64(len(run[i].raw)))
		}
	}
	foldDense(a.acc, run, 0)
}

// FinishRound implements Aggregator.
func (a *SSFLAggregator) FinishRound(round int) {
	defer a.RoundSpan(round, "agg.reduce").End()
	a.FinishStream(round)
	if a.sel == nil {
		a.agreeMask(round)
		return
	}
	if a.folded == 0 || a.sumW == 0 {
		a.folded = 0
		return
	}
	// The fold ran entirely on packed vectors; only this apply touches a
	// dense view, and only at the kept indices — the complement stays
	// the zeros ZeroPruned wrote at agreement.
	avg := comm.GetF32(a.keptN)
	tensor.VecDivF64ToF32(avg, a.acc[:a.keptN], a.sumW, false)
	n := a.Global.StateLen(models.ScopeEncoder)
	state := a.Global.StateInto(models.ScopeEncoder, comm.GetF32(n))
	comm.ScatterCopy(state, avg, a.ranges)
	a.Global.SetState(models.ScopeEncoder, state)
	comm.PutF32(state)
	comm.PutF32(avg)
	a.folded = 0
	a.sumW = 0
}

// agreeMask finalizes the streamed saliency-score fold into the single
// global mask, fixes the salient index ranges for the rest of the
// federation, and zeroes the pruned channels of the global model. The
// scores already folded on arrival; this divides by Σw and derives the
// mask — matching StreamFoldRefSSFLScores bitwise.
func (a *SSFLAggregator) agreeMask(round int) {
	scoreLen := ssflScoreLen(a.Global)
	avg := make([]float64, scoreLen)
	if a.folded > 0 && a.sumW != 0 {
		for j := range avg {
			avg[j] = a.acc[j] / a.sumW
		}
	} else {
		// No survivor this round: agree on the global model's own
		// saliency so the federation still enters the sparse epoch.
		off := 0
		for _, u := range a.Global.PrunableUnits() {
			for _, s := range prune.ChannelScores(u.Conv) {
				avg[off] = s
				off++
			}
		}
	}

	units := a.Global.PrunableUnits()
	masks := make([]prune.Mask, len(units))
	off := 0
	for i, u := range units {
		masks[i] = prune.MaskFromScores(avg[off:off+u.Conv.OutC], a.Opts.KeepRatio)
		off += u.Conv.OutC
	}
	a.sel = prune.SelectWithMasks(a.Global, masks)
	a.ranges = a.sel.Ranges
	a.keptN = 0
	for _, r := range a.ranges {
		a.keptN += int(r.Len)
	}
	a.maskRound = round

	// Zero the pruned sub-network: ZeroPruned handles the channel-level
	// structures (rows, bias, BN affine), then the state-level pass
	// forces the entire non-salient complement — including consumer-conv
	// input columns — to exactly zero, the invariant every later round
	// preserves by never writing outside the kept ranges.
	prune.ZeroPruned(a.Global, a.sel)
	n := a.Global.StateLen(models.ScopeEncoder)
	state := a.Global.StateInto(models.ScopeEncoder, comm.GetF32(n))
	comm.ZeroRanges(state, comm.ComplementRanges(a.ranges, n))
	a.Global.SetState(models.ScopeEncoder, state)
	comm.PutF32(state)

	frame := comm.SparseValsLen(a.keptN)
	if a.cfg.HalfPrecision {
		frame = comm.SparseValsF16Len(a.keptN)
	}
	if tel := a.Telemetry(); tel != nil {
		tel.Emit(telemetry.MaskAgreement(round, a.keptN, int64(frame)))
	}

	a.folded = 0
	a.sumW = 0
}

// Final implements Aggregator: a full sparse frame once the mask exists
// (the complement is zero by construction), dense before agreement.
func (a *SSFLAggregator) Final() []byte {
	if a.sel == nil {
		return comm.EncodeDense(a.Global.State(models.ScopeEncoder))
	}
	state := a.Global.State(models.ScopeEncoder)
	return comm.EncodeSparse(comm.GatherSparse(state, a.ranges))
}

// InstallClientModel writes what a client deploys into m: the global
// encoder under the client's own private predictor, as for SPATL.
func (a *SSFLAggregator) InstallClientModel(_ int, m *models.SplitModel) {
	installScope(a.Global, m, models.ScopeEncoder)
}

// SSFLTrainer is the client side of SSFL.
type SSFLTrainer struct {
	Telemetered
	Client *Client
	Opts   SSFLOptions

	cfg   Config
	upBuf []byte

	// Mask state, copied out of the one full sparse frame received after
	// agreement (broadcast payloads are shared across clients and only
	// valid during the call — the ranges must be owned here).
	ranges     []comm.Range
	complement []comm.Range
	keptN      int
}

// NewSSFLTrainer wires a trainer around a client.
func NewSSFLTrainer(c *Client, opts SSFLOptions, cfg Config) *SSFLTrainer {
	return &SSFLTrainer{Client: c, Opts: opts.WithDefaults(), cfg: cfg.WithDefaults()}
}

// LocalUpdate implements Trainer. The frame magic selects the phase: a
// dense broadcast is the agreement round (warm up, upload saliency
// scores); a full sparse frame installs the mask and its index ranges; a
// values-only frame is a steady-state sparse round. A values-only frame
// arriving before this client has seen the ranges (it was never sampled
// for the index-bearing round) is unusable — the client sits the round
// out rather than guessing.
func (t *SSFLTrainer) LocalUpdate(round int, payload []byte) []byte {
	sp := t.RoundSpan(round, "client.update")
	defer sp.End()
	if len(payload) == 0 {
		return nil
	}
	m := t.Client.Model
	nState := m.StateLen(models.ScopeEncoder)
	switch comm.KindOf(payload) {
	case comm.FrameDense:
		return t.agreementUpdate(sp, round, payload, nState)
	case comm.FrameSparse:
		sw := comm.GetSparse(len(payload))
		if err := comm.DecodeSparseAnyInto(sw, payload); err != nil {
			comm.PutSparse(sw)
			return nil
		}
		t.ranges = append(t.ranges[:0], sw.Ranges...)
		t.complement = comm.ComplementRanges(t.ranges, nState)
		t.keptN = len(sw.Values)
		up := t.sparseUpdate(sp, round, sw.Values, nState)
		comm.PutSparse(sw)
		return up
	case comm.FrameSparseVals:
		if t.ranges == nil {
			return nil
		}
		vals, err := comm.DecodeSparseValsPooled(payload, t.keptN)
		if err != nil {
			return nil
		}
		up := t.sparseUpdate(sp, round, vals, nState)
		comm.PutF32(vals)
		return up
	default:
		return nil
	}
}

// agreementUpdate handles the mask-agreement round: install the dense
// encoder, run the standard local update as warm-up, upload the
// per-channel saliency scores of the warmed-up encoder.
func (t *SSFLTrainer) agreementUpdate(sp *telemetry.Span, round int, payload []byte, nState int) []byte {
	m := t.Client.Model
	state, err := comm.DecodeDensePooled(payload, nState)
	if err != nil {
		return nil
	}
	m.SetState(models.ScopeEncoder, state)
	comm.PutF32(state)

	rng := rand.New(rand.NewSource(ClientSeed(t.cfg.Seed, round, t.Client.ID)))
	train := sp.Child("client.train")
	LocalSGD(t.Client, t.cfg.localOpts(m.Params(), round), rng)
	train.End()

	scores := ssflScoresInto(comm.GetF32(ssflScoreLen(m)), m)
	t.upBuf = t.cfg.encodeDenseInto(t.upBuf, scores)
	comm.PutF32(scores)
	return t.upBuf
}

// sparseUpdate handles a mask-static round: overwrite the salient
// entries with the received packed values, keep the complement at zero,
// train with the pruned gradients zeroed so the mask survives the
// optimizer, and upload the packed salient local state — values-only.
func (t *SSFLTrainer) sparseUpdate(sp *telemetry.Span, round int, vals []float32, nState int) []byte {
	m := t.Client.Model
	state := m.StateInto(models.ScopeEncoder, comm.GetF32(nState))
	comm.ZeroRanges(state, t.complement)
	if !comm.ScatterCopy(state, vals, t.ranges) {
		comm.PutF32(state)
		return nil
	}
	m.SetState(models.ScopeEncoder, state)
	comm.PutF32(state)

	ctrlP := m.EncoderParams()
	opts := t.cfg.localOpts(m.Params(), round)
	// The complement ranges index the encoder state vector, whose prefix
	// is exactly the flattened trainable encoder parameters (the tail is
	// BN running statistics, which take no gradient).
	opts.Hook = ZeroGradRangesHook(ClipRanges(t.complement, nn.ParamCount(ctrlP)), ctrlP)
	rng := rand.New(rand.NewSource(ClientSeed(t.cfg.Seed, round, t.Client.ID)))
	train := sp.Child("client.train")
	LocalSGD(t.Client, opts, rng)
	train.End()

	local := m.StateInto(models.ScopeEncoder, comm.GetF32(nState))
	sw := comm.Sparse{Values: comm.GetF32(t.keptN)[:0]}
	comm.GatherSparseInto(&sw, local, t.ranges)
	if t.cfg.HalfPrecision {
		t.upBuf = comm.EncodeSparseValsF16Into(t.upBuf, sw.Values)
	} else {
		t.upBuf = comm.EncodeSparseValsInto(t.upBuf, sw.Values)
	}
	comm.PutF32(sw.Values)
	comm.PutF32(local)
	return t.upBuf
}

// ZeroGradRangesHook returns a LocalOpts hook zeroing the gradient entries
// covered by ranges over the flattened ctrlP parameters — the mechanism
// that keeps pruned weights at exactly zero through every optimizer
// step, so the agreed mask is static for the whole sparse epoch.
func ZeroGradRangesHook(ranges []comm.Range, ctrlP []*nn.Param) func(params []*nn.Param) {
	return func(_ []*nn.Param) {
		off := 0
		ri := 0
		for _, p := range ctrlP {
			n := p.W.Len()
			for ri < len(ranges) {
				r := ranges[ri]
				if int(r.Start) >= off+n {
					break
				}
				s, e := int(r.Start), int(r.Start)+int(r.Len)
				if s < off {
					s = off
				}
				if e > off+n {
					e = off + n
				}
				run := p.G.Data[s-off : e-off]
				for i := range run {
					run[i] = 0
				}
				if int(r.Start)+int(r.Len) <= off+n {
					ri++
				} else {
					break // range continues into the next parameter
				}
			}
			off += n
		}
	}
}

// Finish implements Trainer: install the final model from either frame
// kind. For a sparse frame the complement is zero by protocol, so the
// state reconstructs exactly from the packed values.
func (t *SSFLTrainer) Finish(payload []byte) {
	if len(payload) == 0 {
		return
	}
	m := t.Client.Model
	switch comm.KindOf(payload) {
	case comm.FrameSparse:
		var sw comm.Sparse
		if err := comm.DecodeSparseAnyInto(&sw, payload); err != nil {
			return
		}
		state := make([]float32, m.StateLen(models.ScopeEncoder))
		if comm.ScatterCopy(state, sw.Values, sw.Ranges) {
			m.SetState(models.ScopeEncoder, state)
		}
	default:
		if state, err := comm.DecodeDenseAnyInto(nil, payload); err == nil {
			m.SetState(models.ScopeEncoder, state)
		}
	}
}
