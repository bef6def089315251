package main

import (
	"runtime"
	"time"

	"spatl/internal/algo"
	"spatl/internal/comm"
)

// timedAgg measures an aggregator from outside: it wraps the
// algo.StreamingAggregator the drivers already take, so no layer below
// knows it is being timed. It must itself satisfy
// algo.StreamingAggregator — the drivers type-assert for it and fall
// back to the legacy arrival-order path otherwise (decorate_test.go).
//
// With the tracer off it only reads the clock twice a round (Broadcast
// entry, FinishRound return): that pair is the round time every
// workload reports, and the only way to see a round of flnet.Server
// from outside. With the tracer on, each call also records a span.
type timedAgg struct {
	algo.StreamingAggregator
	tr *tracer
	// alternate switches the tracer on for odd rounds only, so one run
	// yields traced and untraced round times for the same federation.
	alternate bool

	roundStart   time.Time
	roundStartNS int64
	roundNS      []int64 // Broadcast entry → FinishRound return, one per round
	tracedRound  []bool  // whether roundNS[i] was recorded with the tracer on

	// roundBase is added to the round number of every span, so the
	// episodes of one run do not share round identifiers.
	roundBase int

	collects       int64     // uploads handed to Collect
	firstBcast     time.Time // end of set-up: the first Broadcast
	mallocsAtFirst uint64    // runtime.MemStats.Mallocs at that moment
	lastFinish     time.Time // return of the latest FinishRound
	gapsMS         []float64 // FinishRound return → next Broadcast
}

func newTimedAgg(inner algo.Aggregator, tr *tracer, alternate bool) *timedAgg {
	sa, ok := inner.(algo.StreamingAggregator)
	if !ok {
		panic("benchmark: aggregator does not stream; every aggregator in internal/algo does")
	}
	return &timedAgg{StreamingAggregator: sa, tr: tr, alternate: alternate}
}

func (a *timedAgg) Broadcast(round int) []byte {
	if a.alternate {
		a.tr.on.Store(round%2 == 1)
	}
	a.roundStart = time.Now()
	if a.firstBcast.IsZero() {
		a.firstBcast = a.roundStart
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		a.mallocsAtFirst = ms.Mallocs
		a.roundStart = time.Now()
	} else {
		a.gapsMS = append(a.gapsMS, float64(a.roundStart.Sub(a.lastFinish).Nanoseconds())/1e6)
	}
	if !a.tr.enabled() {
		return a.StreamingAggregator.Broadcast(round)
	}
	a.roundStartNS = a.tr.now()
	p := a.StreamingAggregator.Broadcast(round)
	a.tr.add(span{Name: spanBroadcast, Parent: spanRound, Start: a.roundStartNS, End: a.tr.now(), Round: a.roundBase + round, Client: -1, Bytes: len(p)})
	return p
}

func (a *timedAgg) Collect(round int, client uint32, trainSize int, payload []byte) {
	a.collects++
	if !a.tr.enabled() {
		a.StreamingAggregator.Collect(round, client, trainSize, payload)
		return
	}
	s := a.tr.now()
	a.StreamingAggregator.Collect(round, client, trainSize, payload)
	a.tr.add(span{Name: spanCollect, Parent: spanRound, Start: s, End: a.tr.now(), Round: a.roundBase + round, Client: int(client), Bytes: len(payload)})
}

func (a *timedAgg) FinishRound(round int) {
	traced := a.tr.enabled()
	var s int64
	if traced {
		s = a.tr.now()
	}
	a.StreamingAggregator.FinishRound(round)
	a.lastFinish = time.Now()
	a.roundNS = append(a.roundNS, a.lastFinish.Sub(a.roundStart).Nanoseconds())
	a.tracedRound = append(a.tracedRound, traced)
	if traced {
		e := a.tr.now()
		a.tr.add(span{Name: spanFinishRound, Parent: spanRound, Start: s, End: e, Round: a.roundBase + round, Client: -1})
		a.tr.add(span{Name: spanRound, Start: a.roundStartNS, End: e, Round: a.roundBase + round, Client: -1})
	}
}

// rounds is how many rounds have finished.
func (a *timedAgg) rounds() int { return len(a.roundNS) }

// roundMS returns the recorded round times in milliseconds: those taken
// with the tracer on, or those taken with it off.
func (a *timedAgg) roundMS(traced bool) []float64 {
	var out []float64
	for i, ns := range a.roundNS {
		if a.tracedRound[i] == traced {
			out = append(out, float64(ns)/1e6)
		}
	}
	return out
}

// timedTrainer is the client-side decorator: one span per LocalUpdate.
type timedTrainer struct {
	algo.Trainer
	tr        *tracer
	client    int
	roundBase int // as timedAgg.roundBase
}

func (t *timedTrainer) LocalUpdate(round int, payload []byte) []byte {
	if !t.tr.enabled() {
		return t.Trainer.LocalUpdate(round, payload)
	}
	s := t.tr.now()
	up := t.Trainer.LocalUpdate(round, payload)
	t.tr.add(span{Name: spanLocalUpdate, Parent: spanRound, Start: s, End: t.tr.now(), Round: t.roundBase + round, Client: t.client, Bytes: len(up)})
	return up
}

// replayTrainer uploads a copy of the broadcast with one element
// patched — a valid dense payload, distinct per (round, client), made
// by memcpy instead of training. It is the client of tcp_wire, where
// framing, socket I/O, decode, staging and finalize are the work, and
// it synthesizes exactly what fl.RunMassive's clients do.
type replayTrainer struct {
	client int
	nState int
	up     []byte
}

func (t *replayTrainer) LocalUpdate(round int, payload []byte) []byte {
	if cap(t.up) < len(payload) {
		t.up = make([]byte, len(payload))
	}
	t.up = t.up[:len(payload)]
	copy(t.up, payload)
	idx, delta := replayPatch(round, t.client, t.nState)
	comm.PatchDensePayload(t.up, idx, delta)
	return t.up
}

func (t *replayTrainer) Finish([]byte) {}

// replayPatch is the (index, value) a replay client writes in a round.
func replayPatch(round, client, nState int) (int, float32) {
	return (round*31 + client*7919) % nState, float32(round+1) * (1 + float32(client)/8)
}
