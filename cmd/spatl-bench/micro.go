package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/data"
	"spatl/internal/experiments"
	"spatl/internal/fl"
	"spatl/internal/flnet"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/scenario"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// The micro harness re-measures the substrate benchmarks from bench_test.go
// in a plain binary (via testing.Benchmark) and emits machine-readable
// JSON, so performance numbers can be captured, diffed against a prior run,
// and committed alongside the code they describe.

// microResult is one benchmark measurement; the Baseline* and Speedup
// fields are populated only when a -baseline file is supplied.
type microResult struct {
	Iterations      int     `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	BytesPerOp      int64   `json:"b_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocs  int64   `json:"baseline_allocs_per_op,omitempty"`
	BaselineBytes   int64   `json:"baseline_b_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
	AllocReduction  float64 `json:"alloc_reduction,omitempty"`
}

// microReport is the JSON document written by -micro; -fed adds the
// federation-scale section.
type microReport struct {
	Schema     string                  `json:"schema"`
	GoVersion  string                  `json:"go_version"`
	GOOS       string                  `json:"goos"`
	GOARCH     string                  `json:"goarch"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Machine    machineInfo             `json:"machine"`
	Results    map[string]*microResult `json:"results"`
	Federation map[string]*fedResult   `json:"federation,omitempty"`
}

// machineInfo fingerprints the host a report was recorded on.
// Benchmark numbers are only comparable on the same machine, so the
// regression gate refuses to judge a report against a baseline whose
// fingerprint differs.
type machineInfo struct {
	Hostname   string `json:"hostname"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// fingerprint captures this machine's identity for the report stamp.
func fingerprint() machineInfo {
	host, _ := os.Hostname()
	return machineInfo{Hostname: host, GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel()}
}

// cpuModel reads the first "model name" from /proc/cpuinfo; empty on
// platforms without it — the fingerprint then rests on hostname and
// core count.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return ""
}

// microVec is the payload size for the wire-and-aggregate benchmarks
// (64k float32 ≈ a small encoder), mirroring bench_test.go.
const microVec = 1 << 16

func microValues(seed int64) []float32 {
	rng := nn.Rng(seed)
	v := make([]float32, microVec)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// microSparse builds a ~50%-dense sorted-run payload over microVec.
func microSparse(seed int64) *comm.Sparse {
	rng := nn.Rng(seed)
	s := &comm.Sparse{}
	for start := rng.Intn(8); start < microVec; start += 32 + rng.Intn(32) {
		l := 8 + rng.Intn(24)
		if start+l > microVec {
			l = microVec - start
		}
		s.Ranges = append(s.Ranges, comm.Range{Start: uint32(start), Len: uint32(l)})
		for k := 0; k < l; k++ {
			s.Values = append(s.Values, float32(rng.NormFloat64()))
		}
	}
	return s
}

// withProcs pins GOMAXPROCS for the duration of one benchmark body, so the
// round workloads can be measured both single-core (comparable across
// baselines and machines) and at full machine width.
func withProcs(procs int, fn func(b *testing.B)) func(b *testing.B) {
	return func(b *testing.B) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		fn(b)
	}
}

func flRoundBench(b *testing.B) {
	env := experiments.BuildCIFAREnv(experiments.Tiny, "resnet20", experiments.ClientSet{Clients: 4, Ratio: 1}, 1)
	algo := experiments.NewAlgorithm("fedavg", experiments.Tiny, 1)
	algo.Setup(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Round(env, i, env.SampleClients())
	}
}

// flRoundTelemetryBench is flRoundBench with full telemetry on —
// registry, tracer and a journal draining to io.Discard — so the
// telemetry-on/off delta is visible in the same report (the <1% round
// overhead contract; the benchmark reports it as telemetry.overhead_frac).
func flRoundTelemetryBench(b *testing.B) {
	env := experiments.BuildCIFAREnv(experiments.Tiny, "resnet20", experiments.ClientSet{Clients: 4, Ratio: 1}, 1)
	env.EnableTelemetry(telemetry.New(io.Discard))
	algo := experiments.NewAlgorithm("fedavg", experiments.Tiny, 1)
	algo.Setup(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Round(env, i, env.SampleClients())
	}
}

func spatlRoundBench(b *testing.B) {
	env := experiments.BuildCIFAREnv(experiments.Tiny, "resnet20", experiments.ClientSet{Clients: 4, Ratio: 1}, 1)
	algo := experiments.NewAlgorithm("spatl", experiments.Tiny, 1)
	algo.Setup(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Round(env, i, env.SampleClients())
	}
}

// ssflRoundBench measures one steady-state SSFL round — mask already
// agreed, index ranges already shipped, every wire frame values-only —
// with the mask-static sparse GEMM dispatch either on (the default) or
// off (the per-minibatch probing path it replaced). The on/off pair in
// the report is the direct cost of probing and branch-on-zero per
// minibatch under a mask that never changes.
func ssflRoundBench(maskStatic bool) func(b *testing.B) {
	return func(b *testing.B) {
		prev := nn.SetMaskStaticDispatch(maskStatic)
		defer nn.SetMaskStaticDispatch(prev)
		env := experiments.BuildCIFAREnv(experiments.Tiny, "resnet20", experiments.ClientSet{Clients: 4, Ratio: 1}, 1)
		algo := experiments.NewAlgorithm("ssfl", experiments.Tiny, 1)
		algo.Setup(env)
		algo.Round(env, 0, env.SampleClients()) // dense mask-agreement round
		algo.Round(env, 1, env.SampleClients()) // the one index-bearing round
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algo.Round(env, i+2, env.SampleClients())
		}
	}
}

// heteroRoundBench measures one heterogeneous round — 2 cluster models
// over a half-width client population, so every upload is slice-packed
// and every fold per-index participation-weighted — on the same tiny
// environment as FLRound. The FLRound/HeteroRound pair in the report is
// the direct cost of clustered, width-sliced aggregation over dense
// FedAvg.
func heteroRoundBench(b *testing.B) {
	env := experiments.BuildCIFAREnv(experiments.Tiny, "resnet20", experiments.ClientSet{Clients: 4, Ratio: 1}, 1)
	alg, err := scenario.NewAlgorithm("hetero", scenario.Params{Clusters: 2, WidthDist: []float64{0.5}, ReassignEvery: 4})
	if err != nil {
		b.Fatal(err)
	}
	alg.Setup(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Round(env, i, env.SampleClients())
	}
}

// microBenchmarks lists the tracked hot-path workloads, mirroring the
// definitions in bench_test.go.
var microBenchmarks = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"MatMul", func(b *testing.B) {
		rng := nn.Rng(1)
		x := tensor.New(128, 256)
		y := tensor.New(256, 128)
		x.Randn(rng, 1)
		y.Randn(rng, 1)
		out := tensor.New(128, 128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(out, x, y)
		}
	}},
	{"ConvForward", func(b *testing.B) {
		rng := nn.Rng(2)
		conv := nn.NewConv2D("conv", 16, 16, 3, 1, 1, false, rng)
		x := tensor.New(16, 16, 16, 16)
		x.Randn(rng, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conv.Forward(x, false)
		}
	}},
	{"ConvBackward", func(b *testing.B) {
		rng := nn.Rng(3)
		conv := nn.NewConv2D("conv", 16, 16, 3, 1, 1, false, rng)
		x := tensor.New(16, 16, 16, 16)
		x.Randn(rng, 1)
		out := conv.Forward(x, true)
		dout := tensor.New(out.Shape()...)
		dout.Randn(rng, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nn.ZeroGrad(conv.Params())
			conv.Backward(dout)
		}
	}},
	{"ConvForwardBatched", func(b *testing.B) {
		// Wide-OutC geometry: two full row tiles per 16-column panel of
		// the implicit GEMM.
		rng := nn.Rng(4)
		conv := nn.NewConv2D("conv", 16, 32, 3, 1, 1, false, rng)
		x := tensor.New(32, 16, 16, 16)
		x.Randn(rng, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conv.Forward(x, false)
		}
	}},
	{"ConvForwardNarrow", func(b *testing.B) {
		// Narrow-OutC geometry: the same tile; OutC only sets how many
		// broadcast rows share each loaded B row.
		rng := nn.Rng(5)
		conv := nn.NewConv2D("conv", 16, 8, 3, 1, 1, false, rng)
		x := tensor.New(32, 16, 16, 16)
		x.Randn(rng, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conv.Forward(x, false)
		}
	}},
	{"ConvBackwardBatched", func(b *testing.B) {
		rng := nn.Rng(6)
		conv := nn.NewConv2D("conv", 16, 32, 3, 1, 1, false, rng)
		x := tensor.New(32, 16, 16, 16)
		x.Randn(rng, 1)
		out := conv.Forward(x, true)
		dout := tensor.New(out.Shape()...)
		dout.Randn(rng, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nn.ZeroGrad(conv.Params())
			conv.Backward(dout)
		}
	}},
	{"VecAdd", func(b *testing.B) {
		dst := microValues(40)
		src := microValues(41)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.VecAdd(dst, src)
		}
	}},
	{"RefVecAdd", func(b *testing.B) {
		dst := microValues(40)
		src := microValues(41)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.RefVecAdd(dst, src)
		}
	}},
	{"VecAxpy", func(b *testing.B) {
		y := microValues(42)
		x := microValues(43)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.VecAxpy(y, x, 0.001)
		}
	}},
	{"VecReLU", func(b *testing.B) {
		x := microValues(44)
		out := make([]float32, microVec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.VecReLU(out, x)
		}
	}},
	{"VecSGDMomStep", func(b *testing.B) {
		w := microValues(45)
		v := make([]float32, microVec)
		g := microValues(46)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.VecSGDMomStep(w, v, g, 0.01, 1e-4, 0.9)
		}
	}},
	{"RefVecSGDMomStep", func(b *testing.B) {
		w := microValues(45)
		v := make([]float32, microVec)
		g := microValues(46)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.RefVecSGDMomStep(w, v, g, 0.01, 1e-4, 0.9)
		}
	}},
	{"EncodeDense", func(b *testing.B) {
		v := microValues(9)
		dst := make([]byte, comm.DenseLen(len(v)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = comm.EncodeDenseInto(dst, v)
		}
	}},
	{"RefEncodeDense", func(b *testing.B) {
		v := microValues(9)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			comm.RefEncodeDense(v)
		}
	}},
	{"DecodeDense", func(b *testing.B) {
		buf := comm.EncodeDense(microValues(9))
		dst := make([]float32, microVec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = comm.DecodeDenseInto(dst, buf)
			if err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"RefDecodeDense", func(b *testing.B) {
		buf := comm.EncodeDense(microValues(9))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := comm.RefDecodeDense(buf); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"EncodeSparse", func(b *testing.B) {
		s := microSparse(10)
		dst := make([]byte, s.EncodedLen())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = comm.EncodeSparseInto(dst, s)
		}
	}},
	{"DecodeSparse", func(b *testing.B) {
		s := microSparse(10)
		buf := comm.EncodeSparse(s)
		var out comm.Sparse
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := comm.DecodeSparseInto(&out, buf); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"ScatterAdd", func(b *testing.B) {
		s := microSparse(11)
		sum := make([]float32, microVec)
		count := make([]int32, microVec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			comm.ScatterAdd(sum, count, s)
		}
	}},
	{"SPATLAggregate", func(b *testing.B) {
		uploads := make([]*comm.Sparse, 8)
		for i := range uploads {
			uploads[i] = microSparse(int64(20 + i))
		}
		sum := make([]float32, microVec)
		count := make([]int32, microVec)
		state := microValues(12)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.Parallel(microVec, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					sum[j] = 0
					count[j] = 0
				}
				for _, u := range uploads {
					comm.ScatterAddRange(sum, count, u, lo, hi)
				}
				for j := lo; j < hi; j++ {
					if count[j] > 0 {
						state[j] += sum[j] / float32(count[j])
					}
				}
			})
		}
	}},
	{"WeightedAverage", func(b *testing.B) {
		states := make([][]float32, 8)
		weights := make([]float64, 8)
		for i := range states {
			states[i] = microValues(int64(30 + i))
			weights[i] = float64(50 + i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if algo.WeightedAverage(states, weights) == nil {
				b.Fatal("nil average")
			}
		}
	}},
	{"TelemetryCounter", func(b *testing.B) {
		c := telemetry.NewRegistry().Counter("bench")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	}},
	{"TelemetrySpan", func(b *testing.B) {
		tr := telemetry.NewTracer(telemetry.NewRegistry())
		tr.Start(1, "bench").End()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Start(1, "bench").End()
		}
	}},
	{"TelemetryJournal", func(b *testing.B) {
		j := telemetry.NewJournal(io.Discard)
		j.SetZeroTime(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j.Emit(telemetry.ClientUpload(i, 3, 4096, 100))
		}
	}},
	{"FLRound", withProcs(1, flRoundBench)},
	{"FLRoundMP", withProcs(runtime.NumCPU(), flRoundBench)},
	{"FLRoundTelemetry", withProcs(1, flRoundTelemetryBench)},
	{"SPATLRound", withProcs(1, spatlRoundBench)},
	{"SPATLRoundMP", withProcs(runtime.NumCPU(), spatlRoundBench)},
	{"SSFLRound", withProcs(1, ssflRoundBench(true))},
	{"SSFLRoundMP", withProcs(runtime.NumCPU(), ssflRoundBench(true))},
	{"SSFLRoundProbe", withProcs(1, ssflRoundBench(false))},
	{"HeteroRound", withProcs(1, heteroRoundBench)},
	{"HeteroRoundMP", withProcs(runtime.NumCPU(), heteroRoundBench)},
	{"AggIngest", func(b *testing.B) {
		// 10k-client fold-on-arrival ingest in the worst arrival order
		// (exact reverse: every upload lands as far ahead of the cursor
		// as possible, so the staged set is under constant pressure).
		// One op = one full round: BeginRound, 10k Collects, FinishRound.
		// The post-run assertion is the O(inflight) memory contract —
		// peak staged never exceeds the staging limit, whatever the
		// selection size.
		const nClients = 10_000
		const limit = 256
		spec := models.Spec{Arch: "mlp", Classes: 2, InC: 1, H: 4, W: 4, Width: 0.25}
		global := models.Build(spec, 7)
		agg := algo.NewFedAvgAggregator(global, algo.Config{NumClients: nClients, Seed: 7})
		agg.SetStagingLimit(limit)
		payload := comm.EncodeDense(global.State(models.ScopeAll))
		ids := make([]uint32, nClients)
		for i := range ids {
			ids[i] = uint32(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			agg.BeginRound(i, ids)
			for j := nClients - 1; j >= 0; j-- {
				agg.Collect(i, ids[j], 100, payload)
			}
			agg.FinishRound(i)
		}
		b.StopTimer()
		if peak := agg.StagingPeak(); peak > limit {
			b.Fatalf("staged peak %d exceeds staging limit %d", peak, limit)
		}
	}},
	{"FLRoundMem", func(b *testing.B) {
		// Massive-federation round memory: 5k synthetic clients, 1k
		// sampled per round, sharded collect with pooled bounded-batch
		// upload synthesis and a 10% straggler fraction. The B/op and
		// allocs/op columns are the point of this benchmark — with the
		// streaming fold, round memory is O(synthesis batch + staged +
		// stragglers), not O(selected).
		res, err := fl.RunMassive(fl.MassiveConfig{
			Clients: 5000, PerRound: 1000, Shards: 8, Rounds: b.N,
			OnTimeFrac: 0.9, Seed: 11,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Folded == 0 {
			b.Fatal("no uploads folded")
		}
	}},
	{"FlnetRound", func(b *testing.B) {
		// One full FedAvg round over loopback TCP — the same algo core as
		// FLRound plus framing, sockets and the fault-tolerant round loop.
		const clients = 4
		spec := models.Spec{Arch: "mlp", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.5}
		ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8, Noise: 0.25}, clients*60, 1, 2)
		parts := data.DirichletPartition(ds.Y, 4, clients, 0.5, 10, nn.Rng(3))
		srv, err := flnet.NewServer(flnet.ServerConfig{
			Addr: "127.0.0.1:0", Clients: clients, Rounds: b.N, Seed: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := algo.Config{NumClients: clients, LocalEpochs: 1, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 5}
		agg := algo.NewFedAvgAggregator(models.Build(spec, 5), cfg)
		b.ResetTimer()
		serverErr := make(chan error, 1)
		go func() { serverErr <- srv.Run(agg) }()
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			tr, va := ds.Subset(parts[i]).Split(0.8)
			t := algo.NewFedAvgTrainer(&algo.Client{ID: i, Train: tr, Val: va, Model: models.Build(spec, 5)}, cfg)
			wg.Add(1)
			go func(i int, t *algo.FedAvgTrainer) {
				defer wg.Done()
				if err := flnet.RunClient(srv.Addr(), uint32(i), t.Client.Train.Len(), t); err != nil {
					b.Error(err)
				}
			}(i, t)
		}
		wg.Wait()
		if err := <-serverErr; err != nil {
			b.Fatal(err)
		}
	}},
}

// Memory gating floors: below these baseline magnitudes, allocs/op and
// B/op are dominated by testing.Benchmark noise (one-time pool warmup,
// goroutine stacks, map growth amortized over few iterations) and a
// ratio gate would flake. Benchmarks whose baseline sits under a floor
// are still recorded and diffed, just not gated on that axis.
const (
	allocGateFloor = 64   // allocs/op
	bytesGateFloor = 4096 // B/op
)

// runMicro measures every tracked workload, annotates against an optional
// baseline report, and writes JSON to jsonPath ("" = stdout only). With
// gate set, any benchmark slower than 1+tolerance times its baseline
// fails the run, and any benchmark allocating more than 1+allocTolerance
// times its baseline allocs/op or B/op (above the noise floors) fails
// too — the regression gate scripts/verify.sh --bench uses.
func runMicro(jsonPath, baselinePath string, gate bool, tolerance, allocTolerance float64) error {
	report := microReport{
		Schema:     "spatl-micro-bench/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Machine:    fingerprint(),
		Results:    map[string]*microResult{},
	}

	var baseline *microReport
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("read baseline: %w", err)
		}
		baseline = &microReport{}
		if err := json.Unmarshal(raw, baseline); err != nil {
			return fmt.Errorf("parse baseline: %w", err)
		}
	}

	for _, mb := range microBenchmarks {
		fmt.Fprintf(os.Stderr, "micro: %s...\n", mb.name)
		r := testing.Benchmark(mb.fn)
		res := &microResult{
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if baseline != nil {
			if base, ok := baseline.Results[mb.name]; ok && base.NsPerOp > 0 {
				res.BaselineNsPerOp = base.NsPerOp
				res.BaselineAllocs = base.AllocsPerOp
				res.BaselineBytes = base.BytesPerOp
				res.Speedup = base.NsPerOp / res.NsPerOp
				if res.AllocsPerOp > 0 {
					res.AllocReduction = float64(base.AllocsPerOp) / float64(res.AllocsPerOp)
				}
			}
		}
		report.Results[mb.name] = res
		fmt.Printf("%-14s %12.0f ns/op %10d B/op %6d allocs/op", mb.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		if res.Speedup > 0 {
			fmt.Printf("   %.2fx vs baseline", res.Speedup)
		}
		fmt.Println()
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if jsonPath != "" {
		if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "micro: wrote %s\n", jsonPath)
	} else {
		os.Stdout.Write(out)
	}
	if gate {
		if baseline == nil {
			return fmt.Errorf("-gate needs a -baseline report to compare against")
		}
		// Numbers from a different machine are not a regression signal.
		// Baselines older than the fingerprint stamp (zero Machine) are
		// judged as before — there is nothing to compare against.
		if baseline.Machine != (machineInfo{}) && baseline.Machine != report.Machine {
			fmt.Fprintf(os.Stderr,
				"micro: baseline recorded on a different machine (%s, %d procs, %q; this is %s, %d procs, %q) — skipping regression gate\n",
				baseline.Machine.Hostname, baseline.Machine.GOMAXPROCS, baseline.Machine.CPUModel,
				report.Machine.Hostname, report.Machine.GOMAXPROCS, report.Machine.CPUModel)
			return nil
		}
		var regressed []string
		for name, res := range report.Results {
			if res.BaselineNsPerOp > 0 && res.NsPerOp > res.BaselineNsPerOp*(1+tolerance) {
				regressed = append(regressed,
					fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.0f%%)",
						name, res.NsPerOp, res.BaselineNsPerOp, 100*(res.NsPerOp/res.BaselineNsPerOp-1)))
			}
			if res.BaselineAllocs >= allocGateFloor &&
				float64(res.AllocsPerOp) > float64(res.BaselineAllocs)*(1+allocTolerance) {
				regressed = append(regressed,
					fmt.Sprintf("%s: %d allocs/op vs baseline %d (+%.0f%%)",
						name, res.AllocsPerOp, res.BaselineAllocs,
						100*(float64(res.AllocsPerOp)/float64(res.BaselineAllocs)-1)))
			}
			if res.BaselineBytes >= bytesGateFloor &&
				float64(res.BytesPerOp) > float64(res.BaselineBytes)*(1+allocTolerance) {
				regressed = append(regressed,
					fmt.Sprintf("%s: %d B/op vs baseline %d (+%.0f%%)",
						name, res.BytesPerOp, res.BaselineBytes,
						100*(float64(res.BytesPerOp)/float64(res.BaselineBytes)-1)))
			}
		}
		if len(regressed) > 0 {
			sort.Strings(regressed)
			return fmt.Errorf("regression gate (time tolerance %.0f%%, alloc tolerance %.0f%%) failed:\n  %s",
				100*tolerance, 100*allocTolerance, strings.Join(regressed, "\n  "))
		}
		fmt.Fprintf(os.Stderr, "micro: regression gate passed (time tolerance %.0f%%, alloc tolerance %.0f%%)\n",
			100*tolerance, 100*allocTolerance)
	}
	return nil
}
