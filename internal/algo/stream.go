package algo

import (
	"sort"

	"spatl/internal/telemetry"
)

// Streaming aggregation: fold-on-arrival with deterministic bounded
// staging. Buffer-then-reduce kept every decoded upload alive until
// FinishRound — O(clients × model) peak memory, and the reduce could
// not start until the last upload landed. The stream engine instead
// keeps a cursor over the round's canonical fold order (the selection,
// ascending client ID — the order the serial references replay): an
// upload arriving at the cursor joins the current run — the maximal
// sequence of uploads foldable now, in fold order — and an upload
// arriving early parks in a bounded staging pool and joins the run in
// order as the cursor reaches it. A run is handed to the aggregator
// whole, before the Collect call that started it returns, so a shard's
// worth of in-order uploads is one fold, not thousands. The summation
// order is therefore fixed by client ID, not by network arrival order,
// so the reduction is bitwise identical at any GOMAXPROCS and under any
// arrival permutation — while worst-case upload memory is the staging
// bound, not the client count: uploads in a run are read where the
// transport left them, and only parked ones are copied.
//
// Two-phase scaling keeps the fold streamable: each fold accumulates
// the unscaled term wᵢ·xᵢ (Σw is unknown mid-round), and FinishRound
// finalizes with a single ÷Σw per index. Both phases run per index in
// float64, so the chain acc += wᵢ·f64(xᵢ) … f32(acc/Σw) is one fixed
// sequence of float64 operations regardless of chunking — the property
// the StreamFoldRef* serial references pin down.

// StreamingAggregator is the name Aggregator's streaming half had when
// it was a separate interface; code that embeds or asserts it by that
// name keeps compiling.
type StreamingAggregator = Aggregator

// stagedEntry is one parked out-of-order upload.
type stagedEntry[U any] struct {
	pos int // position in the canonical fold order
	u   U
}

// Stream is the generic fold-on-arrival engine embedded by every
// aggregator, in this package and outside it (internal/hetero), and the
// whole of their upload front end. Embedding it gives an aggregator
// Collect, CollectLate, CollectBatch, BeginRound, MarkAbsent,
// SetStagingLimit, StagingPeak, StagingOverflow, Dropped, SetTelemetry
// and the Telemetered hooks. The aggregator wires its parse and its fold
// with Init in its constructor and calls FinishStream at the top of
// FinishRound. Fold order is the engine's contract; the framing and the
// arithmetic are the aggregator's.
type Stream[U any] struct {
	Telemetered

	parse     func(client uint32, trainSize int, payload []byte) (U, bool)
	foldRun   func([]U) // fold a run of uploads, in order, into the accumulators
	releaseFn func(U)   // return the upload's pooled buffers
	// ownFn detaches an upload from memory the Collect caller may reuse,
	// called on the one path where an upload outlives the call: parking.
	// nil when uploads own their memory from parse on.
	ownFn func(U) U

	round   int              // round of the call in progress, for the fold span
	order   []uint32         // canonical fold order (ascending client ID)
	arrived []bool           // position resolved: folded, staged or absent
	cursor  int              // next position owed a fold
	run     []U              // uploads foldable now, in fold order, until flush
	staged  []stagedEntry[U] // parked out-of-order uploads (unordered)
	limit   int              // staging bound; <=0 means len(order)

	dropped  telemetry.Counter // "algo.uploads_dropped": uploads parse refused
	inflight telemetry.Gauge   // "agg.inflight": selected uploads not yet resolved
	stagedG  telemetry.Gauge   // "agg.staged": currently parked uploads
	peak     telemetry.Counter // "agg.peak_staged": high-water mark of staged
	overflow telemetry.Counter // "agg.staged_overflow": uploads evicted at the bound
}

// Init wires the engine's callbacks, once, from the embedding
// aggregator's constructor. parse checks one payload's framing against
// the model and returns the upload, or false to refuse it, and a refused
// upload should cost only the check. An own that parses the parked copy
// again (the dense path's does) runs parse twice on one upload, so such
// an aggregator counts what it accepts in foldRun, not in parse. foldRun merges
// a run of uploads, in order, into the aggregator's accumulators;
// release returns an upload's pooled buffers; own (nil when uploads own
// their memory from parse on) detaches an upload that is about to park
// from the caller's bytes.
func (s *Stream[U]) Init(parse func(client uint32, trainSize int, payload []byte) (U, bool),
	foldRun func([]U), release func(U), own func(U) U) {
	s.parse, s.foldRun, s.releaseFn, s.ownFn = parse, foldRun, release, own
}

// SetTelemetry implements Wirer, additionally exposing the drop counter
// and the engine's gauges and counters through the registry.
func (s *Stream[U]) SetTelemetry(set *telemetry.Set) {
	s.Telemetered.SetTelemetry(set)
	if set == nil || set.Reg == nil {
		return
	}
	reg := set.Reg
	reg.Attach("algo.uploads_dropped", &s.dropped)
	reg.AttachGauge("agg.inflight", &s.inflight)
	reg.AttachGauge("agg.staged", &s.stagedG)
	reg.Attach("agg.peak_staged", &s.peak)
	reg.Attach("agg.staged_overflow", &s.overflow)
}

// Dropped reports how many malformed uploads have been discarded since
// construction; surfaced so operators can tell a skewed aggregate from a
// healthy one.
func (s *Stream[U]) Dropped() int64 { return s.dropped.Value() }

// admit is the front half of Collect and CollectBatch: observe the size,
// parse. A refused upload is counted and, when it came from a selected
// client, its position resolved as absent — the cursor never waits for a
// contribution that was refused.
func (s *Stream[U]) admit(client uint32, trainSize int, payload []byte) (U, bool) {
	s.ObserveSize("payload.up", len(payload))
	u, ok := s.parse(client, trainSize, payload)
	if !ok {
		s.dropped.Add(1)
		s.skip(client)
	}
	return u, ok
}

// Collect implements Aggregator: parse the upload and hand it to the
// cursor — folded from the caller's bytes when it is at the cursor,
// parked when it is early. payload may be reused as soon as Collect
// returns.
func (s *Stream[U]) Collect(round int, client uint32, trainSize int, payload []byte) {
	defer s.RoundSpan(round, "agg.collect").End()
	s.round = round
	if u, ok := s.admit(client, trainSize, payload); ok {
		s.route(client, u)
	}
	s.flush()
}

// CollectLate implements Aggregator: a carried-over straggler upload
// folds at its delivery position, outside the cursor.
func (s *Stream[U]) CollectLate(round int, client uint32, trainSize int, payload []byte) {
	defer s.RoundSpan(round, "agg.collect").End()
	s.round = round
	s.ObserveSize("payload.up", len(payload))
	u, ok := s.parse(client, trainSize, payload)
	if !ok {
		s.dropped.Add(1)
		return
	}
	s.run = append(s.run, u)
	s.flush()
}

// CollectBatch implements BatchCollector: equivalent to Collect called
// on each upload in order, with every upload the cursor can reach folded
// as one run — for a shard's entries in selection order, the whole
// batch.
func (s *Stream[U]) CollectBatch(round int, ups []Upload) {
	defer s.RoundSpan(round, "agg.collect").End()
	s.round = round
	for _, up := range ups {
		if u, ok := s.admit(up.Client, up.TrainSize, up.Payload); ok {
			s.route(up.Client, u)
		}
	}
	s.flush()
}

// BeginRound implements Aggregator (promoted). The selection
// is copied and sorted ascending — the canonical fold order.
func (s *Stream[U]) BeginRound(round int, selected []uint32) {
	s.round = round
	s.order = append(s.order[:0], selected...)
	sorted := true
	for i := 1; i < len(s.order); i++ {
		if s.order[i] < s.order[i-1] {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	}
	if cap(s.arrived) < len(s.order) {
		s.arrived = make([]bool, len(s.order))
	}
	s.arrived = s.arrived[:len(s.order)]
	for i := range s.arrived {
		s.arrived[i] = false
	}
	s.cursor = 0
	s.inflight.Set(int64(len(s.order)))
	s.stagedG.Set(0)
}

// SetStagingLimit implements Aggregator (promoted).
func (s *Stream[U]) SetStagingLimit(n int) { s.limit = n }

// StagingPeak reports the high-water mark of concurrently staged
// uploads — the same counter the registry exposes as "agg.peak_staged".
func (s *Stream[U]) StagingPeak() int64 { return s.peak.Value() }

// StagingOverflow reports how many uploads the bounded pool evicted —
// the same counter the registry exposes as "agg.staged_overflow".
func (s *Stream[U]) StagingOverflow() int64 { return s.overflow.Value() }

// MarkAbsent implements Aggregator (promoted): resolve a
// selected client's position without a fold so the cursor can pass it,
// and fold whatever parked uploads that frees.
func (s *Stream[U]) MarkAbsent(round int, client uint32) {
	s.round = round
	s.skip(client)
	s.flush()
}

// skip resolves a selected client's position as absent. Parked uploads
// the cursor then reaches join the run; the caller flushes.
func (s *Stream[U]) skip(client uint32) {
	pos, ok := s.find(client)
	if !ok || s.arrived[pos] {
		return
	}
	s.arrived[pos] = true
	if pos == s.cursor {
		s.advance()
	}
	s.inflight.Set(int64(len(s.order) - s.cursor))
}

// find binary-searches the canonical order for a client ID.
func (s *Stream[U]) find(client uint32) (int, bool) {
	pos := sort.Search(len(s.order), func(i int) bool { return s.order[i] >= client })
	return pos, pos < len(s.order) && s.order[pos] == client
}

// route places one upload: into the run when it is foldable now — at
// the cursor, or an unknown/duplicate contributor, which folds at its
// arrival position (the buffered path's append semantics for extras) —
// and into staging when it is early. The caller flushes; between route
// and flush the upload may still alias the caller's bytes.
func (s *Stream[U]) route(client uint32, u U) {
	pos, ok := s.find(client)
	if !ok || s.arrived[pos] {
		// Not selected this round, or a duplicate of a resolved
		// position: fold where it arrived — extras have no slot in the
		// canonical order.
		s.run = append(s.run, u)
		return
	}
	s.arrived[pos] = true
	if pos == s.cursor {
		s.run = append(s.run, u)
		s.cursor++
		s.advance()
		return
	}
	s.stage(pos, u)
	s.inflight.Set(int64(len(s.order) - s.cursor))
}

// flush hands the run to the aggregator as one fold, under one
// "agg.fold" span, and releases its uploads. Every entry point that can
// extend the run ends with it, so a run never outlives the caller's
// bytes it may alias.
func (s *Stream[U]) flush() {
	if len(s.run) == 0 {
		return
	}
	sp := s.RoundSpan(s.round, "agg.fold")
	s.foldRun(s.run)
	sp.End()
	var zero U
	for i, u := range s.run {
		s.releaseFn(u)
		s.run[i] = zero
	}
	s.run = s.run[:0]
}

// own detaches an upload about to park from the caller's bytes.
func (s *Stream[U]) own(u U) U {
	if s.ownFn != nil {
		return s.ownFn(u)
	}
	return u
}

// stage parks an early upload, enforcing the bound by evicting the
// entry farthest from the cursor (it has the longest wait and the least
// chance of folding before FinishRound drains everything anyway). Only
// an upload that actually parks is detached from the caller's bytes.
func (s *Stream[U]) stage(pos int, u U) {
	limit := s.limit
	if limit <= 0 || limit > len(s.order) {
		limit = len(s.order)
	}
	if len(s.staged) >= limit {
		far := 0
		for i := 1; i < len(s.staged); i++ {
			if s.staged[i].pos > s.staged[far].pos {
				far = i
			}
		}
		s.overflow.Inc()
		if s.staged[far].pos > pos {
			s.releaseFn(s.staged[far].u)
			s.staged[far] = stagedEntry[U]{pos: pos, u: s.own(u)}
		} else {
			s.releaseFn(u)
		}
		s.stagedG.Set(int64(len(s.staged)))
		return
	}
	s.staged = append(s.staged, stagedEntry[U]{pos: pos, u: s.own(u)})
	s.stagedG.Set(int64(len(s.staged)))
	if n := int64(len(s.staged)); n > s.peak.Value() {
		s.peak.Add(n - s.peak.Value())
	}
}

// advance moves the cursor over every resolved position, appending the
// parked upload of each (absent positions have none) to the run.
func (s *Stream[U]) advance() {
	for s.cursor < len(s.order) && s.arrived[s.cursor] {
		for i := range s.staged {
			if s.staged[i].pos == s.cursor {
				s.run = append(s.run, s.staged[i].u)
				last := len(s.staged) - 1
				s.staged[i] = s.staged[last]
				s.staged[last] = stagedEntry[U]{}
				s.staged = s.staged[:last]
				break
			}
		}
		s.cursor++
	}
	s.inflight.Set(int64(len(s.order) - s.cursor))
	s.stagedG.Set(int64(len(s.staged)))
}

// FinishStream folds whatever is still parked — uploads whose
// predecessors never arrived — as one run in position order, then resets
// the round state. Called at the top of every FinishRound, before
// finalization.
func (s *Stream[U]) FinishStream(round int) {
	s.round = round
	if len(s.staged) > 0 {
		sort.Slice(s.staged, func(i, j int) bool { return s.staged[i].pos < s.staged[j].pos })
		for i := range s.staged {
			s.run = append(s.run, s.staged[i].u)
			s.staged[i] = stagedEntry[U]{}
		}
		s.staged = s.staged[:0]
	}
	s.flush()
	s.order = s.order[:0]
	s.cursor = 0
	s.inflight.Set(0)
	s.stagedG.Set(0)
}

// Interface conformance of the five in-package cores.
var (
	_ Aggregator = (*FedAvgAggregator)(nil)
	_ Aggregator = (*FedNovaAggregator)(nil)
	_ Aggregator = (*SCAFFOLDAggregator)(nil)
	_ Aggregator = (*SPATLAggregator)(nil)
	_ Aggregator = (*SSFLAggregator)(nil)
)
