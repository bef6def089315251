package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/scenario"
	"spatl/internal/telemetry"
)

// Constants of the two conv_* workloads; BENCHMARK.json's workload
// reasons and README.md quote them.
const (
	// The federation's fixed inputs — the synthetic CIFAR data, its
	// Dirichlet split over the clients, and (conv_spatl) the task the
	// selection agent is pre-trained on — are one data set, as CIFAR-10
	// and the paper's ResNet-56 pre-training are. --seed draws what a
	// run of an experiment draws: the initial weights, which clients
	// are sampled each round, the batch order, the agent's fine-tuning.
	// Deriving the split from --seed as well makes round time a
	// property of how skewed that seed's split is (390–510 ms over
	// seeds 1–3), and deriving the pre-training from it moves SPATL's
	// upload size by 16 % across seeds: neither is what a later change
	// to the code should be judged by.
	convPopulationSeed = 1

	convTargetAcc  = 0.75
	convEvalEvery  = 5
	convCheckRound = 3 // rounds after which the output checks compare state
	convMinRounds  = 6 // a run measures at least this many (one evaluation)
)

func convSpec(algoName string) scenario.Spec {
	s := scenario.Spec{
		Algo: algoName, Arch: "resnet20", Width: 0.25, H: 16, W: 16, Classes: 10, Noise: 0.9,
		Clients: 8, Participation: 0.5, PerClient: 120,
		LocalEpochs: 2, BatchSize: 16, LR: 0.02,
		Partition: scenario.Partition{Kind: scenario.PartDirichlet, Alpha: 0.3},
		Seed:      convPopulationSeed,
	}
	if algoName == "spatl" {
		s.Params.FLOPsBudget = 0.6
		s.Params.PretrainRounds = 2
	}
	return s
}

// convEnv is one set-up of a conv federation, before an algorithm is
// attached: everything between process start and the first Broadcast
// except building the aggregator and trainers.
type convEnv struct {
	spec      scenario.Spec
	env       *fl.Env
	pretrainS float64
}

// newConvEnv builds the environment for a run seed. rep > 0 marks a
// repeated set-up taken only for its duration: it pre-trains on another
// task seed, because scenario.PretrainAgentBlob caches by seed and a
// cache hit is not a set-up.
func newConvEnv(algoName string, seed int64, rep int, tel *telemetry.Set) (*convEnv, error) {
	spec := convSpec(algoName)
	spec.Params.Seed = seed
	ce := &convEnv{spec: spec}
	if algoName == "spatl" {
		pre := spec
		pre.Seed = convPopulationSeed + int64(rep)*1_000_003
		t0 := time.Now()
		ce.spec.Params.Pretrained = scenario.PretrainAgentBlob(pre)
		ce.pretrainS = time.Since(t0).Seconds()
	}
	env, err := scenario.BuildEnv(ce.spec, tel)
	if err != nil {
		return nil, err
	}
	// The run's own randomness: initial weights, sampling, training RNG.
	env.Cfg.Seed = seed
	env.Rng = rand.New(rand.NewSource(seed))
	init := models.Build(env.Spec, seed).State(models.ScopeAll)
	env.Global.SetState(models.ScopeAll, init)
	for _, c := range env.Clients {
		c.Model.SetState(models.ScopeAll, init)
	}
	ce.env = env
	return ce, nil
}

// convFed is a conv federation wired through the timing decorators and
// the flat in-process driver.
type convFed struct {
	*convEnv
	agg *timedAgg
	sim *fl.Sim
}

func newConvFed(ce *convEnv, tr *tracer, alternate bool) (*convFed, error) {
	entry, err := scenario.Lookup(ce.spec.Algo)
	if err != nil {
		return nil, err
	}
	cfg := ce.env.AlgoConfig()
	agg := newTimedAgg(entry.NewAggregator(ce.env.Global, ce.spec.Params, cfg), tr, alternate)
	trainers := make([]algo.Trainer, len(ce.env.Clients))
	for i, c := range ce.env.Clients {
		trainers[i] = &timedTrainer{Trainer: entry.NewTrainer(c, ce.spec.Params, cfg), tr: tr, client: i}
	}
	return &convFed{convEnv: ce, agg: agg, sim: fl.NewSim(ce.env, agg, trainers)}, nil
}

// setupConv is the whole set-up, the interval setup_s times.
func setupConv(algoName string, seed int64, rep int, tr *tracer, alternate bool) (*convFed, error) {
	ce, err := newConvEnv(algoName, seed, rep, nil)
	if err != nil {
		return nil, err
	}
	return newConvFed(ce, tr, alternate)
}

// evaluate is the mean client validation accuracy, as fl.Run computes
// it: the global model for FedAvg, the global encoder under each
// client's own predictor for SPATL.
func (f *convFed) evaluate() float64 {
	env := f.env
	var sum float64
	for _, c := range env.Clients {
		m := env.Global
		if f.spec.Algo == "spatl" {
			c.Model.SetState(models.ScopeEncoder, env.Global.State(models.ScopeEncoder))
			m = c.Model
		}
		acc := fl.EvalAccuracy(m, c.Val, 64)
		if math.IsNaN(acc) {
			acc = 0
		}
		sum += acc
	}
	return sum / float64(len(env.Clients))
}

// stepsOf is the optimizer steps one LocalUpdate of a client takes.
func (f *convFed) stepsOf(client int) int {
	n := f.env.Clients[client].Train.Len()
	b := f.env.Cfg.BatchSize
	return f.env.Cfg.LocalEpochs * ((n + b - 1) / b)
}

// stateCounts is what must repeat exactly for a seed.
func stateCounts(env *fl.Env) map[string]string {
	return map[string]string{
		"model_hash": hashF32(env.Global.State(models.ScopeAll)),
		"up_bytes":   fmt.Sprint(env.Meter.Up()),
		"down_bytes": fmt.Sprint(env.Meter.Down()),
	}
}

// bareConvCounts runs the same federation the way the repo's own
// callers do — scenario.NewAlgorithm driving the flat Sim, no decorator
// anywhere — and returns its counts after rounds rounds.
func bareConvCounts(algoName string, seed int64, rounds int) (map[string]string, error) {
	ce, err := newConvEnv(algoName, seed, 0, nil)
	if err != nil {
		return nil, err
	}
	alg, err := scenario.NewAlgorithm(algoName, ce.spec.Params)
	if err != nil {
		return nil, err
	}
	alg.Setup(ce.env)
	for r := 0; r < rounds; r++ {
		alg.Round(ce.env, r, ce.env.SampleClients())
	}
	return stateCounts(ce.env), nil
}

func sameCounts(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// runConv measures conv_fedavg or conv_spatl.
func runConv(algoName string, rc runConfig) (*report, error) {
	r := rc.newReport()
	r.CheckRound = convCheckRound

	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	t0 := time.Now()
	fed, err := setupConv(algoName, rc.seed, 0, tr, rc.traced)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(t0).Seconds()}
	env := fed.env

	budget := rc.measureBudget()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var (
		evalMS       []float64
		accs         []float64
		roundSum     time.Duration // Σ round time so far, evaluation excluded
		hitRound     = -1
		hitTimeS     float64
		hitUp        int64
		roundClients [][]int
	)
	start := time.Now()
	rounds := 0
	for ; rounds < convMinRounds || time.Since(start) < budget; rounds++ {
		sel := env.SampleClients()
		roundClients = append(roundClients, sel)
		fed.sim.Round(rounds, sel)
		roundSum += time.Duration(fed.agg.roundNS[rounds])
		if rounds+1 == convCheckRound {
			r.Counts = stateCounts(env)
		}
		if (rounds+1)%convEvalEvery != 0 {
			continue
		}
		e0 := time.Now()
		var s int64
		if tr.enabled() {
			s = tr.now()
		}
		acc := fed.evaluate()
		if tr.enabled() {
			tr.add(span{Name: spanEval, Start: s, End: tr.now(), Round: rounds, Client: -1})
		}
		evalMS = append(evalMS, float64(time.Since(e0).Nanoseconds())/1e6)
		accs = append(accs, acc)
		if hitRound < 0 && acc >= convTargetAcc {
			hitRound, hitTimeS, hitUp = rounds+1, roundSum.Seconds(), env.Meter.Up()
		}
	}
	runtime.ReadMemStats(&ms1)
	rss := peakRSSMB()
	if tr != nil {
		tr.on.Store(false)
	}

	uploads := fed.agg.collects
	dropped := aggDropped(fed.agg.StreamingAggregator)
	r.Rounds = rounds
	for _, sel := range roundClients {
		r.Attempted += int64(len(sel))
	}
	r.Failed = r.Attempted - uploads + dropped

	// Accuracy-derived quantities: on the card of an untraced run, and
	// among the per-layer metrics (fl.*) of a traced one.
	reached := 0.0
	if hitRound < 0 {
		// Not reached inside this run: report where the run stood, and
		// say so, rather than nothing.
		hitRound, hitTimeS, hitUp = rounds, roundSum.Seconds(), env.Meter.Up()
		r.Notes = append(r.Notes, fmt.Sprintf("target %.2f not reached in %d rounds; *_to_target report the end of the run", convTargetAcc, rounds))
	} else {
		reached = 1
		r.TargetReached = true
	}
	last := accs
	if len(last) > 4 {
		last = last[len(last)-4:]
	}
	finalAcc := sum(last) / float64(len(last))

	if !rc.traced {
		all := fed.agg.roundMS(false)
		r.Samples = len(all)
		r.set("round_ms_p50", median(all))
		r.set("uploads_per_s", float64(uploads-dropped)/roundSum.Seconds())
		r.set("up_mb_per_round", comm.MB(env.Meter.Up())/float64(rounds))
		r.set("down_mb_per_round", comm.MB(env.Meter.Down())/float64(rounds))
		r.set("peak_rss_mb", rss)
		r.set("allocs_per_upload", float64(ms1.Mallocs-ms0.Mallocs)/float64(uploads))
		r.setCard("time_to_target_s", hitTimeS)
		r.setCard("rounds_to_target", float64(hitRound))
		r.setCard("up_mb_to_target", comm.MB(hitUp))
		r.setCard("final_acc", finalAcc)
		tv, tp := tail(all)
		r.Notes = append(r.Notes, fmt.Sprintf("round_ms p%.1f = %.3f ms over %d rounds", tp, tv, len(all)))
	} else {
		r.set("fl.time_to_target_s", hitTimeS)
		r.set("fl.rounds_to_target", float64(hitRound))
		r.set("fl.up_mb_to_target", comm.MB(hitUp))
		r.set("fl.final_acc", finalAcc)
		r.set("fl.target_reached", reached)
		r.set("fl.eval_ms", median(evalMS))
		r.set("algo.dropped", float64(dropped))
		r.set("runtime.allocs_per_round", float64(ms1.Mallocs-ms0.Mallocs)/float64(rounds))
		runtimeMetrics(r, &ms1)

		if err := convLayers(r, rc, fed, tr, roundClients); err != nil {
			return nil, err
		}
		if err := tr.writeJSONL(rc.traceFile, r.Workload, rc.child); err != nil {
			return nil, err
		}
	}

	// Further set-ups, timed and thrown away, so setup_s is a median.
	if !rc.traced {
		for rep := 1; moreSetups(setups); rep++ {
			t := time.Now()
			if _, err := setupConv(algoName, rc.seed, rep, nil, false); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t).Seconds())
		}
		r.set("setup_s", median(setups))
		r.Notes = append(r.Notes, fmt.Sprintf("setup_s is the median of %d set-ups", len(setups)))
	}

	// Output checks.
	bare, err := bareConvCounts(algoName, rc.seed, convCheckRound)
	if err != nil {
		return nil, err
	}
	r.check("decorated_equals_bare", sameCounts(r.Counts, bare), "after %d rounds: decorated %v, bare scenario.NewAlgorithm run %v", convCheckRound, r.Counts, bare)
	r.check("no_failed_uploads", r.Failed == 0, "%d of %d", r.Failed, r.Attempted)
	if rounds >= 30 {
		// Chance is 0.1; seeds 1–3 average above 0.6 over their last
		// four evaluations by round 30.
		r.check("model_learned", finalAcc >= 0.4, "final_acc %.3f after %d rounds (10 classes)", finalAcc, rounds)
	}
	return r, nil
}

// convLayers sets the per-layer metrics of a traced conv run that come
// from its spans and from the probes, and the round budget.
func convLayers(r *report, rc runConfig, fed *convFed, tr *tracer, roundClients [][]int) error {
	an := analyzeSpans(r, tr)
	if p, ok := fed.agg.StreamingAggregator.(interface {
		StagingPeak() int64
		StagingOverflow() int64
	}); ok {
		r.set("algo.staged_peak", float64(p.StagingPeak()))
		r.set("algo.staged_overflow", float64(p.StagingOverflow()))
	}
	probes := rc.probeBudget()
	step := probeStep(r, fed.env, rc.seed, len(roundClients[0]), probes/4)
	// Rounds differ in the clients they sample, so for
	// trace.overhead_frac traced and untraced rounds are compared per
	// optimizer step. nn.step_share is the share of the clients' busy
	// time the probe's step time accounts for; the remainder is trainer
	// overhead (state install, codec, on conv_spatl the selection).
	var stepCounts, msPerStepOn, msPerStepOff []float64
	var totalSteps float64
	for rd, sel := range roundClients {
		n := 0
		for _, ci := range sel {
			n += fed.stepsOf(ci)
		}
		perStep := float64(fed.agg.roundNS[rd]) / 1e6 / float64(n)
		if !fed.agg.tracedRound[rd] {
			msPerStepOff = append(msPerStepOff, perStep)
			continue
		}
		msPerStepOn = append(msPerStepOn, perStep)
		stepCounts = append(stepCounts, float64(n))
		totalSteps += float64(n)
	}
	r.Samples = len(msPerStepOn)
	r.set("trace.overhead_frac", median(msPerStepOn)/median(msPerStepOff)-1)
	r.set("nn.steps_per_round", median(stepCounts))
	if an.busyMS > 0 {
		r.set("nn.step_share", totalSteps*step.totalMS()/an.busyMS)
	}
	probeKernels(r, fed.env, probes/4)
	probeSynth(r, fed.spec, probes/16)
	probeModels(r, fed.env.Spec, probes/16)
	selectMS := 0.0
	if fed.spec.Algo == "spatl" {
		selectMS = probeSelection(r, fed, probes/8)
		r.set("rl.pretrain_s", fed.pretrainS)
	}
	probeCodec(r, fed, probes/8)
	if fed.spec.Algo == "fedavg" {
		if err := probeTelemetryOverhead(r, rc.seed, probes/4); err != nil {
			return err
		}
	}
	convBudget(r, an, fed, step, selectMS)
	return nil
}

// probeTelemetryOverhead is telemetry.overhead_frac: the same
// conv_fedavg federation built twice, once with Env.EnableTelemetry
// journaling to io.Discard, driven round for round in turn; the ratio
// round for round (the same seed samples the same clients), minus 1.
func probeTelemetryOverhead(r *report, seed int64, budget time.Duration) error {
	build := func(tel *telemetry.Set) (*convFed, error) {
		ce, err := newConvEnv("fedavg", seed, 0, tel)
		if err != nil {
			return nil, err
		}
		return newConvFed(ce, nil, false)
	}
	plain, err := build(nil)
	if err != nil {
		return err
	}
	withTel, err := build(telemetry.New(io.Discard))
	if err != nil {
		return err
	}
	start := time.Now()
	for rd := 0; rd < 3 || time.Since(start) < budget; rd++ {
		// Same seed, so both sample the same clients and do the same work.
		withTel.sim.Round(rd, withTel.env.SampleClients())
		plain.sim.Round(rd, plain.env.SampleClients())
	}
	on, off := withTel.agg.roundMS(false), plain.agg.roundMS(false)
	ratios := make([]float64, len(on))
	for i := range on {
		ratios[i] = on[i] / off[i]
	}
	r.set("telemetry.overhead_frac", median(ratios)-1)
	return nil
}

// aggDropped reads the malformed-upload counter every aggregator in
// internal/algo exposes.
func aggDropped(a algo.Aggregator) int64 {
	if d, ok := a.(interface{ Dropped() int64 }); ok {
		return d.Dropped()
	}
	return 0
}
