package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"spatl/internal/comm"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/graph"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/prune"
	"spatl/internal/rl"
	"spatl/internal/scenario"
	"spatl/internal/tensor"
)

// Probes replay one layer's public functions on the workload's own
// shapes and payloads, from outside the layer. Each runs its body until
// its time budget is spent (at least three times) and reports medians.

// timeLoop calls body until budget has passed and at least minIters
// calls were made, and returns the per-call durations in seconds.
func timeLoop(budget time.Duration, body func()) []float64 {
	const minIters = 3
	var out []float64
	start := time.Now()
	for len(out) < minIters || time.Since(start) < budget {
		t := time.Now()
		body()
		out = append(out, time.Since(t).Seconds())
	}
	return out
}

// stepTimes is the median cost of the phases of one training step.
type stepTimes struct {
	batchMS, forwardMS, lossMS, backwardMS, optimMS float64
}

func (s stepTimes) totalMS() float64 {
	return s.batchMS + s.forwardMS + s.lossMS + s.backwardMS + s.optimMS
}

// probeStep times the phases of algo.LocalSGD's step, called the way it
// calls them, on a client's own data and the workload's model. A round
// trains min(GOMAXPROCS, sampled clients) clients side by side, so the
// probe steps that many models at once and times one of them: a step
// alone on the machine is faster than any step a round contains.
func probeStep(r *report, env *fl.Env, seed int64, perRound int, budget time.Duration) stepTimes {
	ds := env.Clients[0].Train
	bs := env.Cfg.BatchSize
	ms := func(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
	var batch, fwd, loss, bwd, optim []float64
	// stepper returns one training step over its own model; timed says
	// whether to record the phases.
	stepper := func(id int64, timed bool) func() {
		m := models.Build(env.Spec, seed+id)
		params := m.Params()
		opt := nn.NewSGD(params, env.Cfg.LR, env.Cfg.Momentum, env.Cfg.WeightDecay)
		rng := rand.New(rand.NewSource(seed + id))
		return func() {
			idx := ds.Batches(rng, bs)[0]
			t0 := time.Now()
			x, y := ds.Batch(idx)
			t1 := time.Now()
			nn.ZeroGrad(params)
			t2 := time.Now()
			out := m.Forward(x, true)
			t3 := time.Now()
			_, grad := nn.SoftmaxCrossEntropy(out, y)
			t4 := time.Now()
			m.Backward(grad)
			t5 := time.Now()
			opt.Step()
			if timed {
				batch = append(batch, float64(t1.Sub(t0).Nanoseconds())/1e6)
				fwd = append(fwd, float64(t3.Sub(t2).Nanoseconds())/1e6)
				loss = append(loss, float64(t4.Sub(t3).Nanoseconds())/1e6)
				bwd = append(bwd, float64(t5.Sub(t4).Nanoseconds())/1e6)
				optim = append(optim, ms(t5))
			}
		}
	}
	lanes := runtime.GOMAXPROCS(0)
	if perRound < lanes {
		lanes = perRound
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i < lanes; i++ {
		wg.Add(1)
		go func(step func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					step()
				}
			}
		}(stepper(int64(i), false))
	}
	timeLoop(budget*3/4, stepper(0, true))
	close(stop)
	wg.Wait()
	m := models.Build(env.Spec, seed)
	st := stepTimes{median(batch), median(fwd), median(loss), median(bwd), median(optim)}
	r.set("data.batch_us", 1e3*st.batchMS)
	r.set("nn.forward_ms", st.forwardMS)
	r.set("nn.loss_ms", st.lossMS)
	r.set("nn.backward_ms", st.backwardMS)
	r.set("nn.optim_ms", st.optimMS)
	r.set("nn.samples_per_s", float64(bs)/(st.totalMS()/1e3))

	// Evaluation forward, at the batch size fl.EvalAccuracy uses.
	n := 64
	if ds.Len() < n {
		n = ds.Len()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	x, _ := ds.Batch(idx)
	ev := timeLoop(budget/4, func() { m.Forward(x, false) })
	r.set("nn.eval_forward_ms", 1e3*median(ev))
	return st
}

// stageDims are the 3×3 convolutions of the model's three stages, for a
// batch of 16: the GEMM of stage s is (OutC × InC·9) · (InC·9 × 16·H·W).
func stageDims(spec models.Spec) []tensor.ConvDims {
	probe := models.Build(spec, 1)
	var dims []tensor.ConvDims
	seen := map[int]bool{}
	h := spec.H
	for _, u := range probe.PrunableConvs() {
		c := u.OutC
		if seen[c] {
			continue
		}
		seen[c] = true
		dims = append(dims, tensor.NewConvDims(c, h, h, c, 3, 1, 1))
		h /= 2
	}
	return dims
}

// probeKernels times the tensor kernels the conv layers lower to, at
// the workload's stage shapes.
func probeKernels(r *report, env *fl.Env, budget time.Duration) {
	const batch = 16
	rng := rand.New(rand.NewSource(1))
	randn := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	type gemm struct {
		m, k, n    int
		w, col, c  []float32 // (m,k), (k,n), (m,n)
		dOut       []float32 // (m,n), the gradient of c
		dW, dCol   []float32 // (m,k), (k,n)
		masked     []float32
		pat        *tensor.MaskPat
		d          tensor.ConvDims
		img, imgDx []float32
		colOne     []float32
	}
	var gs []gemm
	var flops, maskedFlops, lowerBytes float64
	const keep = 0.6 // the run's FLOPs budget: the share of weights a masked GEMM keeps
	for _, d := range stageDims(env.Spec) {
		g := gemm{m: d.OutC, k: d.InC * 9, n: batch * d.OutH * d.OutW, d: d}
		g.w, g.col, g.c = randn(g.m*g.k), randn(g.k*g.n), make([]float32, g.m*g.n)
		g.dOut, g.dW, g.dCol = randn(g.m*g.n), make([]float32, g.m*g.k), make([]float32, g.k*g.n)
		g.masked = append([]float32(nil), g.w...)
		for i := range g.masked {
			if rng.Float64() > keep {
				g.masked[i] = 0
			}
		}
		g.pat = tensor.BuildMaskPat(g.masked, g.m, g.k)
		g.img, g.imgDx = randn(d.InC*d.H*d.W), make([]float32, d.InC*d.H*d.W)
		g.colOne = make([]float32, g.k*d.OutH*d.OutW)
		gs = append(gs, g)
		flops += 3 * 2 * float64(g.m) * float64(g.k) * float64(g.n)
		maskedFlops += 2 * float64(g.pat.NNZ()) * float64(g.n)
		lowerBytes += 4 * float64(len(g.colOne)+len(g.img))
	}
	if len(gs) == 0 {
		return
	}
	dense := timeLoop(budget/4, func() {
		for _, g := range gs {
			tensor.MatMulSlice(g.c, g.w, g.col, g.m, g.k, g.n)           // forward: W·col
			tensor.MatMulTransBSlice(g.dW, g.dOut, g.col, g.m, g.n, g.k) // dW = dOut·colᵀ
			tensor.MatMulTransASlice(g.dCol, g.w, g.dOut, g.k, g.m, g.n) // dcol = Wᵀ·dOut
		}
	})
	r.set("tensor.gemm_gflops", flops/median(dense)/1e9)
	masked := timeLoop(budget/8, func() {
		for _, g := range gs {
			tensor.MatMulMaskPatSlice(g.c, g.masked, g.col, g.pat, g.n)
		}
	})
	r.set("tensor.gemm_masked_gflops", maskedFlops/median(masked)/1e9)
	im2col := timeLoop(budget/8, func() {
		for _, g := range gs {
			tensor.Im2Col(g.colOne, g.img, g.d)
		}
	})
	r.set("tensor.im2col_gbps", lowerBytes/median(im2col)/1e9)
	col2im := timeLoop(budget/8, func() {
		for _, g := range gs {
			for i := range g.imgDx {
				g.imgDx[i] = 0
			}
			tensor.Col2Im(g.imgDx, g.colOne, g.d)
		}
	})
	r.set("tensor.col2im_gbps", lowerBytes/median(col2im)/1e9)

	// The optimizer's fused momentum step over a state-sized vector:
	// reads w, v, g and writes w, v.
	n := env.Global.StateLen(models.ScopeAll)
	w, v, g := randn(n), make([]float32, n), randn(n)
	sgd := timeLoop(budget/8, func() { tensor.VecSGDMomStep(w, v, g, 0.02, 0, 0.9) })
	r.set("tensor.vec_sgd_gbps", 5*4*float64(n)/median(sgd)/1e9)
	dispatch := timeLoop(budget/8, func() {
		for i := 0; i < 100; i++ {
			tensor.Parallel(64, func(lo, hi int) {})
		}
	})
	r.set("tensor.parallel_dispatch_us", 1e6*median(dispatch)/100)
}

// probeSynth is data.synth_s: synthesizing the federation's data set,
// the bulk of a conv workload's set-up besides pre-training.
func probeSynth(r *report, spec scenario.Spec, budget time.Duration) {
	synth := timeLoop(budget, func() {
		data.SynthCIFAR(data.SynthCIFARConfig{Classes: spec.Classes, H: spec.H, W: spec.W, Noise: spec.Noise},
			spec.Clients*spec.PerClient, 101, 303)
	})
	r.set("data.synth_s", median(synth))
}

// probeModels times model construction, which every set-up does once
// per client, and the state copies every LocalUpdate starts and ends
// with.
func probeModels(r *report, ms models.Spec, budget time.Duration) {
	var m *models.SplitModel
	build := timeLoop(budget/3, func() { m = models.Build(ms, 1) })
	r.set("models.build_ms", 1e3*median(build))
	buf := make([]float32, m.StateLen(models.ScopeAll))
	into := timeLoop(budget/3, func() { m.StateInto(models.ScopeAll, buf) })
	r.set("models.state_into_us", 1e6*median(into))
	set := timeLoop(budget/3, func() { m.SetState(models.ScopeAll, buf) })
	r.set("models.set_state_us", 1e6*median(set))
}

// probeSelection times SPATL's salient selection on a client's trained
// model the way SPATLTrainer.selectSalient runs it after fine-tuning:
// graph.FromEncoder + Agent.Forward (both inside rl.BestAction) +
// prune.Select. The PPO fine-tuning of the first rounds, which scores
// actions on the validation set through the masked kernels, is not in
// it: that shows as trainer.other in the budget. Returns the cost of
// one selection in ms.
func probeSelection(r *report, fed *convFed, budget time.Duration) float64 {
	c := fed.env.Clients[0]
	p := fed.spec.Params
	agent := rl.NewAgent(rl.AgentConfig{Dim: 16, HeadHidden: 32, Seed: p.Seed + 31})
	if p.Pretrained != nil {
		agent.Load(p.Pretrained)
	}
	penv := prune.NewEnv(c.Model, c.Val, p.FLOPsBudget)
	var sel *prune.Selection
	whole := timeLoop(budget/2, func() {
		sel = prune.Select(c.Model, rl.BestAction(agent, penv))
	})
	r.set("prune.select_ms", 1e3*median(whole))
	r.set("prune.keep_frac", sel.KeepFrac())
	fwd := timeLoop(budget/2, func() { agent.Forward(graph.FromEncoder(c.Model)) })
	r.set("rl.agent_forward_ms", 1e3*median(fwd))
	return 1e3 * median(whole)
}

// probeDenseCodec times the dense codec on a captured dense payload.
func probeDenseCodec(r *report, payload []byte, budget time.Duration) {
	vals, err := comm.DecodeDenseAnyInto(nil, payload)
	if err != nil {
		return
	}
	bytes := float64(len(payload))
	buf := make([]byte, 0, len(payload))
	enc := timeLoop(budget/2, func() { buf = comm.EncodeDenseInto(buf, vals) })
	r.set("comm.encode_dense_gbps", bytes/median(enc)/1e9)
	dec := timeLoop(budget/2, func() { vals, _ = comm.DecodeDenseAnyInto(vals, payload) })
	r.set("comm.decode_dense_gbps", bytes/median(dec)/1e9)
}

// probeCodec times the codecs on the payloads the traced run captured:
// the broadcast (dense; for SPATL its first part) and, for SPATL, the
// sparse weight-delta part of an upload.
func probeCodec(r *report, fed *convFed, budget time.Duration) {
	bcast := fed.agg.StreamingAggregator.Broadcast(fed.agg.rounds())
	if fed.spec.Algo != "spatl" {
		probeDenseCodec(r, bcast, budget)
		return
	}
	parts, err := comm.SplitPayloads(bcast)
	if err != nil || len(parts) == 0 {
		return
	}
	probeDenseCodec(r, parts[0], budget/2)
	// A client's upload for the round after the last: its trainer is
	// idle now, and nothing is collected.
	up := fed.sim.Trainers[0].LocalUpdate(fed.agg.rounds(), bcast)
	ups, err := comm.SplitPayloads(up)
	if err != nil || len(ups) == 0 {
		return
	}
	var s comm.Sparse
	if err := comm.DecodeSparseAnyInto(&s, ups[0]); err != nil {
		return
	}
	bytes := float64(len(ups[0]))
	buf := make([]byte, 0, len(ups[0]))
	enc := timeLoop(budget/6, func() { buf = comm.EncodeSparseInto(buf, &s) })
	r.set("comm.encode_sparse_gbps", bytes/median(enc)/1e9)
	var d comm.Sparse
	dec := timeLoop(budget/6, func() { _ = comm.DecodeSparseAnyInto(&d, ups[0]) })
	r.set("comm.decode_sparse_gbps", bytes/median(dec)/1e9)
	dst := make([]float32, fed.env.Global.StateLen(models.ScopeEncoder))
	count := make([]int32, len(dst))
	sc := timeLoop(budget/6, func() { comm.ScatterAdd(dst, count, &s) })
	r.set("comm.scatter_add_gbps", 4*float64(s.Count())/median(sc)/1e9)
}
