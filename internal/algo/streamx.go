package algo

import (
	"spatl/internal/comm"
	"spatl/internal/nn"
	"spatl/internal/telemetry"
)

// Stream exports the fold-on-arrival engine for aggregators built
// outside this package (internal/hetero). Embedding a Stream gives an
// aggregator the full StreamingAggregator surface minus CollectLate:
// BeginRound, MarkAbsent, SetStagingLimit, StagingPeak and
// StagingOverflow are promoted from the engine; the embedding
// aggregator wires its fold/release callbacks with Init and routes
// decoded uploads through Ingest (cursor discipline) or FoldNow (the
// CollectLate path). The determinism contract is identical to the
// in-package aggregators': fold order is the canonical ascending
// client-ID order whatever the arrival permutation, so a per-index
// float64 fold chain is bitwise reproducible at any GOMAXPROCS.
type Stream[U any] struct {
	stream[U]
}

// Init wires the engine's callbacks: fold merges one decoded upload
// into the embedding aggregator's accumulators, release returns the
// upload's pooled buffers. Call once, from the constructor, before the
// first Ingest.
func (s *Stream[U]) Init(fold, release func(U)) {
	s.foldRun = oneByOne(fold)
	s.releaseFn = release
}

// Ingest routes one decoded upload through the streaming cursor: fold
// at the cursor, park early arrivals, fold extras at arrival position.
func (s *Stream[U]) Ingest(client uint32, u U) { s.ingest(client, u) }

// FoldNow folds an upload immediately, outside the cursor discipline —
// the CollectLate path.
func (s *Stream[U]) FoldNow(u U) { s.foldNow(u) }

// FinishStream drains whatever is still parked in position order and
// resets the round state. Call at the top of FinishRound, before
// finalization.
func (s *Stream[U]) FinishStream() { s.finishStream() }

// WireStream exposes the engine's gauges and counters through the
// registry; call from the aggregator's SetTelemetry.
func (s *Stream[U]) WireStream(reg *telemetry.Registry) { s.wireStream(reg) }

// RoundSpan starts a span under the round's trace ID (round+1) — the
// span helper the in-package cores use, promoted for cores built
// outside this package. Nil-safe when no telemetry is installed.
func (t *Telemetered) RoundSpan(round int, name string) *telemetry.Span {
	return t.span(round, name)
}

// ObserveSize observes a payload size histogram ("payload.up",
// "payload.down"). Nil-safe when no telemetry is installed.
func (t *Telemetered) ObserveSize(name string, n int) { t.size(name, n) }

// ZeroGradRangesHook returns a LocalOpts hook zeroing the gradient
// entries covered by ranges over the flattened ctrlP parameters — the
// mask-static mechanism (see SSFLTrainer) exported for slice-training
// cores outside this package: weights outside the trained slice take no
// optimizer step, so they hold whatever value the slice installer wrote
// (exact zero for SSFL's pruned channels, the broadcast value for a
// width-sliced hetero client).
func ZeroGradRangesHook(ranges []comm.Range, ctrlP []*nn.Param) func(params []*nn.Param) {
	return zeroGradRanges(ranges, ctrlP)
}
