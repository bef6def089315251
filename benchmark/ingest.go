package main

import (
	"fmt"
	"runtime"
	"time"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/telemetry"
)

// Constants of ingest_10k.
const (
	ingestClients    = 10_000
	ingestShards     = 4
	ingestOnTimeFrac = 0.8
	// fl.RunMassive owns its aggregator and runs a fixed number of
	// rounds, so a time-bounded run is a sequence of episodes: each is
	// one RunMassive federation of ingestEpisodeRounds rounds from the
	// same config. Every round after an episode's first folds the
	// previous round's stragglers; the last round's stragglers are
	// still pending when the episode ends (fl.pending_at_end).
	ingestEpisodeRounds = 3
	ingestCheckRounds   = 2 // the sharded-equals-flat check's prefix
)

// ingestSpec is fl.RunMassive's default model, named so the probes can
// build the same one.
var ingestSpec = models.Spec{Arch: "mlp", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.5}

func ingestConfig(seed int64, rounds int, tel *telemetry.Set) fl.MassiveConfig {
	return fl.MassiveConfig{
		Clients: ingestClients, Shards: ingestShards, Rounds: rounds,
		OnTimeFrac: ingestOnTimeFrac, Spec: ingestSpec, Seed: seed, Tel: tel,
	}
}

// ingestEpisode is one RunMassive federation and what its registry
// counted.
type ingestEpisode struct {
	res     *fl.MassiveResult
	wallS   float64
	snap    telemetry.Snapshot
	spanned bool // run with the library's span tracer on
}

// runIngestEpisode runs one episode. The registry is always attached:
// it is how the aggregator's drop and staging counters are read from
// outside, and costs one histogram observation per upload. spans also
// attaches the library's tracer, which times every Broadcast, Collect,
// fold and FinishRound into "span.*.ns" histograms — the only view of
// a layer RunMassive offers, and what the traced run pays for.
func runIngestEpisode(seed int64, rounds int, spans bool) (*ingestEpisode, error) {
	tel := &telemetry.Set{Reg: telemetry.NewRegistry()}
	if spans {
		tel.Trace = telemetry.NewTracer(tel.Reg)
	}
	t0 := time.Now()
	res, err := fl.RunMassive(ingestConfig(seed, rounds, tel))
	if err != nil {
		return nil, err
	}
	return &ingestEpisode{res: res, wallS: time.Since(t0).Seconds(), snap: tel.Reg.Snapshot(), spanned: spans}, nil
}

// setupIngest is ingest_10k's set-up: what RunMassive does before its
// first Broadcast is a model build of microseconds, so the set-up that
// counts is the lazy one — a first round, after which the buffer pools
// and the heap are at the size every later round reuses. The measured
// episodes start warm; work moved into that first round shows here.
func setupIngest(seed int64) (seconds float64, err error) {
	t := time.Now()
	_, err = runIngestEpisode(seed, 1, false)
	return time.Since(t).Seconds(), err
}

func runIngest(rc runConfig) (*report, error) {
	r := rc.newReport()
	r.CheckRound = ingestCheckRounds

	var setups []float64
	takeSetup := func() error {
		s, err := setupIngest(rc.seed)
		setups = append(setups, s)
		return err
	}
	if err := takeSetup(); err != nil {
		return nil, err
	}
	budget := rc.measureBudget()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var eps []*ingestEpisode
	start := time.Now()
	// At least two episodes, so a traced run has one of each kind: it
	// turns the library's spans on for every second episode, and so
	// measures what they cost.
	for len(eps) < 2 || time.Since(start) < budget {
		ep, err := runIngestEpisode(rc.seed, ingestEpisodeRounds, rc.traced && len(eps)%2 == 1)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}
	runtime.ReadMemStats(&ms1)
	rss := peakRSSMB()

	var roundMS, spannedMS []float64
	var folded, dropped, upBytes, peakStaged, overflow, late int64
	var wall float64
	hashes := map[string]bool{}
	for _, ep := range eps {
		perRound := 1e3 * ep.wallS / ingestEpisodeRounds
		if ep.spanned {
			spannedMS = append(spannedMS, perRound)
		} else {
			roundMS = append(roundMS, perRound)
		}
		wall += ep.wallS
		folded += ep.res.Folded
		upBytes += ep.res.UpBytes
		dropped += ep.snap.Counters["algo.uploads_dropped"]
		overflow += ep.snap.Counters["agg.staged_overflow"]
		late += ep.snap.Counters["fl.late_uploads"]
		if p := ep.snap.Counters["agg.peak_staged"]; p > peakStaged {
			peakStaged = p
		}
		hashes[hashF32(ep.res.FinalState)] = true
	}
	rounds := len(eps) * ingestEpisodeRounds
	r.Rounds = rounds
	r.Attempted = int64(rounds) * ingestClients
	pending := r.Attempted - folded // uploads the episodes ended before folding
	r.Failed = dropped + overflow
	folded -= r.Failed
	downPerRound := comm.MB(int64(ingestClients) * int64(denseLen(ingestSpec)))

	if !rc.traced {
		r.Samples = len(roundMS)
		r.set("round_ms_p50", median(roundMS))
		r.set("uploads_per_s", float64(folded)/wall)
		r.set("up_mb_per_round", comm.MB(upBytes)/float64(rounds))
		r.set("down_mb_per_round", downPerRound)
		r.set("peak_rss_mb", rss)
		r.set("allocs_per_upload", float64(ms1.Mallocs-ms0.Mallocs)/float64(folded))
		r.Notes = append(r.Notes, fmt.Sprintf("round_ms_p50 is the median over %d episodes of %d rounds each; %d uploads were pending when their episode ended, %d folded late", len(eps), ingestEpisodeRounds, pending, late))
		for moreSetups(setups) {
			if err := takeSetup(); err != nil {
				return nil, err
			}
		}
		r.set("setup_s", median(setups))
		r.Notes = append(r.Notes, fmt.Sprintf("setup_s is the median of %d set-ups", len(setups)))
	} else {
		r.Samples = len(spannedMS)
		r.set("fl.pending_at_end", float64(pending)/float64(len(eps)))
		r.set("algo.staged_peak", float64(peakStaged))
		r.set("algo.staged_overflow", float64(overflow))
		r.set("algo.dropped", float64(dropped))
		r.set("runtime.allocs_per_round", float64(ms1.Mallocs-ms0.Mallocs)/float64(rounds))
		runtimeMetrics(r, &ms1)
		r.set("trace.overhead_frac", median(spannedMS)/median(roundMS)-1)
		tv, tp := tail(spannedMS)
		r.set("fl.round_ms_tail", tv)
		r.Notes = append(r.Notes, fmt.Sprintf("fl.round_ms_tail is p%.1f of %d spanned episodes", tp, len(spannedMS)))
		ingestLayers(r, eps, median(spannedMS))
		probes := rc.probeBudget()
		probeIngestCollect(r, rc.seed, probes/2)
		probeModels(r, ingestSpec, probes/4)
		bcast := algo.NewFedAvgAggregator(models.Build(ingestSpec, rc.seed), algo.Config{NumClients: ingestClients}).Broadcast(0)
		probeDenseCodec(r, bcast, probes/4)
		if err := ingestTrace(eps).writeJSONL(rc.traceFile, r.Workload, rc.child); err != nil {
			return nil, err
		}
	}

	// Output checks.
	r.Counts = map[string]string{}
	sharded, err := fl.RunMassive(ingestConfig(rc.seed, ingestCheckRounds, nil))
	if err != nil {
		return nil, err
	}
	flatCfg := ingestConfig(rc.seed, ingestCheckRounds, nil)
	flatCfg.FlatCollect = true
	flat, err := fl.RunMassive(flatCfg)
	if err != nil {
		return nil, err
	}
	r.Counts["model_hash"] = hashF32(sharded.FinalState)
	r.Counts["up_bytes"] = fmt.Sprint(sharded.UpBytes)
	r.Counts["folded"] = fmt.Sprint(sharded.Folded)
	r.check("sharded_equals_flat", hashF32(flat.FinalState) == r.Counts["model_hash"] && flat.Folded == sharded.Folded,
		"%d-round prefix: sharded %s (%d folded), FlatCollect %s (%d folded)", ingestCheckRounds, r.Counts["model_hash"], sharded.Folded, hashF32(flat.FinalState), flat.Folded)
	r.check("episodes_repeat", len(hashes) == 1, "%d distinct final states over %d episodes of one config", len(hashes), len(eps))
	r.check("no_failed_uploads", r.Failed == 0, "%d dropped, %d evicted from staging, of %d", dropped, overflow, r.Attempted)
	return r, nil
}

// denseLen is the size of a dense payload carrying spec's whole state.
func denseLen(spec models.Spec) int {
	return comm.DenseLen(models.Build(spec, 1).StateLen(models.ScopeAll))
}

// ingestLayers reads the library's span histograms of the spanned
// episodes: mean time per call of each aggregator entry point, and the
// round budget built from their sums.
func ingestLayers(r *report, eps []*ingestEpisode, roundMS float64) {
	sumNS, count := map[string]int64{}, map[string]int64{}
	spannedRounds := 0
	var sizes telemetry.HistSnapshot
	for _, ep := range eps {
		if !ep.spanned {
			continue
		}
		spannedRounds += ingestEpisodeRounds
		for _, name := range []string{"agg.broadcast", "agg.collect", "agg.fold", "agg.reduce"} {
			h := ep.snap.Histograms["span."+name+".ns"]
			sumNS[name] += h.Sum
			count[name] += h.Count
		}
		sizes = ep.snap.Histograms["payload.up"]
	}
	if spannedRounds == 0 {
		return
	}
	mean := func(name string) float64 { // ns per call
		if count[name] == 0 {
			return 0
		}
		return float64(sumNS[name]) / float64(count[name])
	}
	perRound := func(name string) float64 { return float64(sumNS[name]) / 1e6 / float64(spannedRounds) }
	r.set("algo.broadcast_ms", mean("agg.broadcast")/1e6)
	r.set("algo.finish_round_ms", mean("agg.reduce")/1e6)
	if sizes.Count > 0 {
		r.set("algo.upload_bytes_p50", float64(sizes.Sum)/float64(sizes.Count)) // every upload is the same size
	}
	// agg.fold runs inside agg.collect; the budget shows them apart.
	collectSelf := perRound("agg.collect") - perRound("agg.fold")
	named := perRound("agg.broadcast") + perRound("agg.collect") + perRound("agg.reduce")
	r.set("fl.driver_self_ms", roundMS-named)
	budgetFromRows(r, roundMS, []budgetRow{
		{Layer: "algo.broadcast", MS: perRound("agg.broadcast")},
		{Layer: "algo.collect (decode)", MS: collectSelf},
		{Layer: "algo.collect (fold)", MS: perRound("agg.fold")},
		{Layer: "algo.finish_round", MS: perRound("agg.reduce")},
	})
	r.Notes = append(r.Notes, "ingest_10k budget rows are the library's own span histograms (per-round means); other is upload synthesis, shard buffers and the driver")
}

// probeIngestCollect times Collect per upload, which RunMassive does
// not expose: a FedAvg aggregator over the same model, fed one round of
// uploads synthesized as RunMassive synthesizes them, in ascending
// order through BeginRound.
func probeIngestCollect(r *report, seed int64, budget time.Duration) {
	const n = 2000
	global := models.Build(ingestSpec, seed)
	agg := algo.NewFedAvgAggregator(global, algo.Config{NumClients: n, Seed: seed})
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	tr := &replayTrainer{nState: global.StateLen(models.ScopeAll)}
	var us []float64
	round := 0
	timeLoop(budget, func() {
		bcast := agg.Broadcast(round)
		agg.BeginRound(round, ids)
		for i := range ids {
			tr.client = i
			up := tr.LocalUpdate(round, bcast)
			t := time.Now()
			agg.Collect(round, ids[i], 50+i%101, up)
			us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		}
		agg.FinishRound(round)
		round++
	})
	r.set("algo.collect_us_p50", median(us))
	tv, tp := tail(us)
	r.set("algo.collect_us_tail", tv)
	r.Notes = append(r.Notes, fmt.Sprintf("algo.collect_us_* are from a replay of %d Collect calls; tail is p%.2f", len(us), tp))
}

// ingestTrace renders the episodes as spans, so trace.jsonl has the
// same shape for every workload: one round span per episode round, at
// the episode's mean round time.
func ingestTrace(eps []*ingestEpisode) *tracer {
	tr := newTracer()
	var at int64
	round := 0
	for _, ep := range eps {
		per := int64(ep.wallS * 1e9 / ingestEpisodeRounds)
		for i := 0; i < ingestEpisodeRounds; i++ {
			if ep.spanned {
				tr.add(span{Name: spanRound, Start: at, End: at + per, Round: round, Client: -1})
			}
			at += per
			round++
		}
	}
	return tr
}
