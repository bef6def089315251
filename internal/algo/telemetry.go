package algo

import "spatl/internal/telemetry"

// Telemetry in the algorithm layer follows the package contract of
// internal/telemetry: cores observe, they never participate. Spans and
// size histograms are recorded around the numeric work, never inside
// it, and a nil set makes every hook a no-op branch — the cores run
// identically with telemetry on or off.
//
// Span vocabulary (trace ID = round+1):
//
//	agg.broadcast  encode the round broadcast        (server)
//	agg.collect    one Collect, CollectLate or CollectBatch call:
//	               parse, route, and the run it completes (server)
//	agg.fold       fold one run of uploads into the accumulators,
//	               inside the call that completed it (server)
//	agg.reduce     finalize the round's accumulators  (server)
//	client.update  one full LocalUpdate               (client)
//	client.train   the LocalSGD inside it             (client)
//	client.select  SPATL salient selection            (client)
//
// Size vocabulary: "payload.down" bytes per broadcast, "payload.up"
// bytes per collected upload — both observed server-side so the sim's
// shared set counts each payload exactly once.
//
// Streaming vocabulary (see stream.go), the same for every aggregator:
// gauges "agg.inflight" (selected uploads not yet resolved this round)
// and "agg.staged" (uploads parked ahead of the fold cursor); counters
// "algo.uploads_dropped" (uploads parse refused), "agg.peak_staged"
// (high-water mark of the staged set) and "agg.staged_overflow" (uploads
// evicted at the staging bound).

// Telemetered is the embeddable telemetry hook shared by every
// aggregator and trainer. Its zero value is inert.
type Telemetered struct {
	tel *telemetry.Set
}

// SetTelemetry installs the set the core records into. Call before the
// first round; cores never synchronize access to the set pointer.
func (t *Telemetered) SetTelemetry(s *telemetry.Set) { t.tel = s }

// Telemetry returns the installed set (nil when telemetry is off).
func (t *Telemetered) Telemetry() *telemetry.Set { return t.tel }

// RoundSpan starts a span under the round's trace ID (round+1, so round
// 0 is distinguishable from "no trace"). Nil-safe when no telemetry is
// installed.
func (t *Telemetered) RoundSpan(round int, name string) *telemetry.Span {
	return t.tel.Span(uint64(round)+1, name)
}

// ObserveSize observes a payload size histogram ("payload.up",
// "payload.down"). Nil-safe when no telemetry is installed.
func (t *Telemetered) ObserveSize(name string, n int) { t.tel.Size(name, int64(n)) }

// Wirer is any core that accepts a telemetry set — the aggregators and
// trainers here all qualify via the Telemetered embed.
type Wirer interface {
	SetTelemetry(*telemetry.Set)
}

// Wire installs tel on every core that accepts it and ignores the
// rest, so transports can wire heterogeneous core sets in one call.
func Wire(tel *telemetry.Set, cores ...any) {
	for _, c := range cores {
		if w, ok := c.(Wirer); ok {
			w.SetTelemetry(tel)
		}
	}
}
