package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// roundSpans is one traced round with the algo spans it caused.
type roundSpans struct {
	round    span
	children []span
}

// spanAnalysis is what the per-layer metrics and the round budget need
// from the spans of a traced run.
type spanAnalysis struct {
	rounds      []roundSpans
	busyMS      float64    // Σ local_update durations over traced rounds
	medianRound roundSpans // the traced round closest to the median duration
}

// Categories of the blocking path of a round. Server-side calls are
// sequential on one goroutine; local updates run beside each other and,
// over TCP, beside the server's collects. covered() attributes every
// instant of a round to the first category in this order that has a
// span open, so the categories partition the round exactly.
var blockingOrder = []string{spanBroadcast, spanCollect, spanFinishRound, spanLocalUpdate}

// covered splits the round's duration over blockingOrder; what no span
// covers is the driver's self time ("other": the round loop, and over
// TCP the socket).
func (rs roundSpans) covered() (byName map[string]float64, selfMS float64) {
	cuts := []int64{rs.round.Start, rs.round.End}
	for _, c := range rs.children {
		cuts = append(cuts, clamp(c.Start, rs.round), clamp(c.End, rs.round))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	byName = map[string]float64{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi == lo {
			continue
		}
		owner := ""
		for _, name := range blockingOrder {
			for _, c := range rs.children {
				if c.Name == name && c.Start <= lo && c.End >= hi {
					owner = name
					break
				}
			}
			if owner != "" {
				break
			}
		}
		ms := float64(hi-lo) / 1e6
		if owner == "" {
			selfMS += ms
		} else {
			byName[owner] += ms
		}
	}
	return byName, selfMS
}

func clamp(t int64, r span) int64 {
	if t < r.Start {
		return r.Start
	}
	if t > r.End {
		return r.End
	}
	return t
}

// analyzeSpans sets the fl.* and algo.* metrics that come from spans.
func analyzeSpans(r *report, tr *tracer) *spanAnalysis {
	an := &spanAnalysis{}
	idx := map[int]int{}
	for _, s := range tr.byName(spanRound) {
		idx[s.Round] = len(an.rounds)
		an.rounds = append(an.rounds, roundSpans{round: s})
	}
	for _, name := range blockingOrder {
		for _, s := range tr.byName(name) {
			if i, ok := idx[s.Round]; ok {
				an.rounds[i].children = append(an.rounds[i].children, s)
			}
		}
	}

	var roundMS, selfMS, eff, imbalance, bcast, finish, lu, collect, upBytes []float64
	procs := float64(runtime.GOMAXPROCS(0))
	for _, rs := range an.rounds {
		roundMS = append(roundMS, rs.round.ms())
		_, self := rs.covered()
		selfMS = append(selfMS, self)
		var busy, longest float64
		n := 0
		for _, c := range rs.children {
			switch c.Name {
			case spanBroadcast:
				bcast = append(bcast, c.ms())
			case spanFinishRound:
				finish = append(finish, c.ms())
			case spanCollect:
				collect = append(collect, c.us())
				upBytes = append(upBytes, float64(c.Bytes))
			case spanLocalUpdate:
				lu = append(lu, c.ms())
				busy += c.ms()
				longest = math.Max(longest, c.ms())
				n++
			}
		}
		an.busyMS += busy
		if n > 0 && busy > 0 {
			eff = append(eff, busy/(rs.round.ms()*procs))
			imbalance = append(imbalance, longest/(busy/float64(n)))
		}
	}
	if len(an.rounds) > 0 {
		med := median(roundMS)
		best := 0
		for i, ms := range roundMS {
			if math.Abs(ms-med) < math.Abs(roundMS[best]-med) {
				best = i
			}
		}
		an.medianRound = an.rounds[best]
	}

	tv, tp := tail(roundMS)
	r.set("fl.round_ms_tail", tv)
	r.Notes = append(r.Notes, fmt.Sprintf("fl.round_ms_tail is p%.1f of %d traced rounds", tp, len(roundMS)))
	r.set("fl.driver_self_ms", median(selfMS))
	r.set("fl.client_parallel_eff", median(eff))
	r.set("algo.broadcast_ms", median(bcast))
	r.set("algo.local_update_ms_p50", median(lu))
	lt, lp := tail(lu)
	r.set("algo.local_update_ms_tail", lt)
	r.set("algo.local_update_imbalance", median(imbalance))
	r.set("algo.collect_us_p50", median(collect))
	ct, cp := tail(collect)
	r.set("algo.collect_us_tail", ct)
	r.Notes = append(r.Notes, fmt.Sprintf("algo.local_update_ms_tail is p%.1f of %d, algo.collect_us_tail p%.1f of %d", lp, len(lu), cp, len(collect)))
	r.set("algo.finish_round_ms", median(finish))
	r.set("algo.upload_bytes_p50", median(upBytes))
	return an
}

// runtimeMetrics sets the runtime.* metrics from a MemStats read at the
// end of the measured rounds.
func runtimeMetrics(r *report, ms *runtime.MemStats) {
	r.set("runtime.gc_cpu_frac", ms.GCCPUFraction)
	r.set("runtime.heap_peak_mb", float64(ms.HeapSys-ms.HeapReleased)/(1<<20))
}

// budgetFromRows finishes a round budget: shares of the total, with the
// rows summing to it exactly because "other" is what is left.
func budgetFromRows(r *report, totalMS float64, rows []budgetRow) {
	var named float64
	for _, b := range rows {
		named += b.MS
	}
	rows = append(rows, budgetRow{Layer: "other", MS: totalMS - named})
	for i := range rows {
		if totalMS > 0 {
			rows[i].Share = rows[i].MS / totalMS
		}
	}
	r.Budget = rows
	r.Notes = append(r.Notes, fmt.Sprintf("round budget sums to the median traced round, %.4f ms", totalMS))
}

// spanBudget is the round budget of a workload whose clients do not
// train: the median traced round split over its spans as measured.
func spanBudget(r *report, an *spanAnalysis, other string) {
	by, _ := an.medianRound.covered()
	budgetFromRows(r, an.medianRound.round.ms(), []budgetRow{
		{Layer: "algo.broadcast", MS: by[spanBroadcast]},
		{Layer: "algo.local_update (replay)", MS: by[spanLocalUpdate]},
		{Layer: "algo.collect", MS: by[spanCollect]},
		{Layer: "algo.finish_round", MS: by[spanFinishRound]},
	})
	r.Notes = append(r.Notes, "other is "+other)
}

// convBudget splits the median traced round of a conv workload: the
// server-side spans as measured, and the clients' time on the blocking
// path divided the way the step and selection probes say their busy
// time divides.
func convBudget(r *report, an *spanAnalysis, fed *convFed, step stepTimes, selectMS float64) {
	rs := an.medianRound
	by, _ := rs.covered()
	var busy float64
	steps, updates := 0.0, 0.0
	for _, c := range rs.children {
		if c.Name == spanLocalUpdate {
			busy += c.ms()
			steps += float64(fed.stepsOf(c.Client))
			updates++
		}
	}
	parts := []budgetRow{
		{Layer: "nn.forward", MS: steps * step.forwardMS},
		{Layer: "nn.backward", MS: steps * step.backwardMS},
		{Layer: "nn.loss", MS: steps * step.lossMS},
		{Layer: "nn.optim", MS: steps * step.optimMS},
		{Layer: "data.batch", MS: steps * step.batchMS},
	}
	if selectMS > 0 {
		parts = append(parts, budgetRow{Layer: "prune.select", MS: updates * selectMS})
	}
	var probed float64
	for _, p := range parts {
		probed += p.MS
	}
	// What the probes do not account for is the trainer's own work:
	// state install, codec, control variates. Should the probes claim
	// more than the clients were busy, they are scaled to fit.
	parts = append(parts, budgetRow{Layer: "trainer.other", MS: math.Max(0, busy-probed)})
	scale := 0.0
	if total := math.Max(busy, probed); total > 0 {
		scale = by[spanLocalUpdate] / total
	}
	rows := []budgetRow{{Layer: "algo.broadcast", MS: by[spanBroadcast]}}
	for _, p := range parts {
		rows = append(rows, budgetRow{Layer: p.Layer, MS: p.MS * scale})
	}
	rows = append(rows,
		budgetRow{Layer: "algo.collect", MS: by[spanCollect]},
		budgetRow{Layer: "algo.finish_round", MS: by[spanFinishRound]},
	)
	budgetFromRows(r, rs.round.ms(), rows)
}
