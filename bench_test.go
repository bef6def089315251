// Package spatl's root benchmark suite regenerates every table and
// figure of the paper at the Tiny scale (one Benchmark per artifact —
// see DESIGN.md §3 for the mapping), plus micro-benchmarks of the
// substrates that dominate runtime. Run the full harness with:
//
//	go test -bench=. -benchmem
//
// Paper-scale regeneration uses the spatl-bench CLI instead:
//
//	go run ./cmd/spatl-bench -exp all -scale small
package spatl_test

import (
	"io"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/experiments"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// benchOpts runs drivers quietly at the Tiny scale.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: experiments.Tiny, Out: io.Discard, Seed: 1}
}

func runDriver(b *testing.B, driver experiments.Runner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := driver(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLearningEfficiency regenerates the learning-curve figure
// (E1, §V-B): accuracy vs round for SPATL and all baselines.
func BenchmarkLearningEfficiency(b *testing.B) { runDriver(b, experiments.LearningEfficiency) }

// BenchmarkFEMNISTLearning regenerates the FEMNIST 2-layer-CNN curve
// (E1, §V-B) — the paper's known exception case.
func BenchmarkFEMNISTLearning(b *testing.B) { runDriver(b, experiments.FEMNISTLearning) }

// BenchmarkConvergeAccuracy regenerates Fig. 3 (E2): converged accuracy
// per method per setting.
func BenchmarkConvergeAccuracy(b *testing.B) { runDriver(b, experiments.ConvergeAccuracy) }

// BenchmarkLocalAccuracy regenerates the per-client accuracy figure
// (E3, §V-B).
func BenchmarkLocalAccuracy(b *testing.B) { runDriver(b, experiments.LocalAccuracy) }

// BenchmarkTable1Communication regenerates Table I (E4, §V-C):
// communication cost to target accuracy.
func BenchmarkTable1Communication(b *testing.B) { runDriver(b, experiments.Table1Communication) }

// BenchmarkRoundsToTarget regenerates the rounds-to-target figure
// (E5, §V-C).
func BenchmarkRoundsToTarget(b *testing.B) { runDriver(b, experiments.RoundsToTarget) }

// BenchmarkTable2Convergence regenerates Table II (E6, §V-C): cost and
// accuracy at convergence for the larger populations.
func BenchmarkTable2Convergence(b *testing.B) { runDriver(b, experiments.Table2Convergence) }

// BenchmarkTable3Transfer regenerates Table III (E7, §V-E):
// transferability of the federated-trained model.
func BenchmarkTable3Transfer(b *testing.B) { runDriver(b, experiments.Table3Transfer) }

// BenchmarkInferenceAcceleration regenerates the inference table
// (E8, §V-D): per-client FLOPs reduction after SPATL training.
func BenchmarkInferenceAcceleration(b *testing.B) { runDriver(b, experiments.InferenceAcceleration) }

// BenchmarkTable4Pruning regenerates Table IV (E9, §V-F1): the agent
// against SFP/FPGM/DSA/L1 at a matched FLOPs budget.
func BenchmarkTable4Pruning(b *testing.B) { runDriver(b, experiments.Table4Pruning) }

// BenchmarkAblationSelection regenerates Fig. 4 (E10): salient selection
// on/off.
func BenchmarkAblationSelection(b *testing.B) { runDriver(b, experiments.AblationSelection) }

// BenchmarkAblationTransfer regenerates Fig. 5a (E11): transfer learning
// on/off.
func BenchmarkAblationTransfer(b *testing.B) { runDriver(b, experiments.AblationTransfer) }

// BenchmarkAblationGradientControl regenerates Fig. 5b (E12): gradient
// control on/off.
func BenchmarkAblationGradientControl(b *testing.B) {
	runDriver(b, experiments.AblationGradientControl)
}

// BenchmarkRLAgentFineTune regenerates Fig. 6 (E13): agent pre-training
// on ResNet-56 and head-only fine-tuning on ResNet-18.
func BenchmarkRLAgentFineTune(b *testing.B) { runDriver(b, experiments.RLAgentFineTune) }

// BenchmarkCompression runs the beyond-paper compression ablation:
// salient selection composed with half-precision payloads.
func BenchmarkCompression(b *testing.B) { runDriver(b, experiments.Compression) }

// BenchmarkRobustness runs the beyond-paper failure-injection sweep:
// accuracy vs client drop rate for FedAvg and SPATL.
func BenchmarkRobustness(b *testing.B) { runDriver(b, experiments.Robustness) }

// BenchmarkWallTime runs the beyond-paper time-to-accuracy simulation
// over heterogeneous 4G links.
func BenchmarkWallTime(b *testing.B) { runDriver(b, experiments.WallTime) }

// ---- substrate micro-benchmarks ----

// BenchmarkMatMul measures the parallel blocked matrix multiply at a
// training-typical size.
func BenchmarkMatMul(b *testing.B) {
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
}

// BenchmarkMatMulTransB measures the dot-kernel C = A·Bᵀ path that linear
// forward and the convolution weight gradient ride on.
func BenchmarkMatMulTransB(b *testing.B) {
	rng := nn.Rng(4)
	x := tensor.New(128, 256)
	y := tensor.New(128, 256)
	x.Randn(rng, 1)
	y.Randn(rng, 1)
	out := tensor.New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulTransBInto(out, x, y)
	}
}

// BenchmarkMatMulTransA measures the C = Aᵀ·B path used by linear and
// convolution input gradients.
func BenchmarkMatMulTransA(b *testing.B) {
	rng := nn.Rng(5)
	x := tensor.New(256, 128)
	y := tensor.New(256, 128)
	x.Randn(rng, 1)
	y.Randn(rng, 1)
	out := tensor.New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulTransAInto(out, x, y)
	}
}

// BenchmarkIm2Col measures the row-major convolution lowering at the
// ResNet-style geometry used by the conv benchmarks.
func BenchmarkIm2Col(b *testing.B) {
	rng := nn.Rng(6)
	d := tensor.NewConvDims(16, 16, 16, 16, 3, 1, 1)
	x := tensor.New(16, 16, 16)
	x.Randn(rng, 1)
	col := make([]float32, 16*3*3*d.OutH*d.OutW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2Col(col, x.Data, d)
	}
}

// BenchmarkCol2Im measures the backward scatter that folds column
// gradients back into image gradients.
func BenchmarkCol2Im(b *testing.B) {
	rng := nn.Rng(8)
	d := tensor.NewConvDims(16, 16, 16, 16, 3, 1, 1)
	col := tensor.New(16*3*3, d.OutH*d.OutW)
	col.Randn(rng, 1)
	dx := make([]float32, 16*16*16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dx {
			dx[j] = 0
		}
		tensor.Col2Im(dx, col.Data, d)
	}
}

// BenchmarkConvForward measures a ResNet-style 3×3 convolution forward
// pass (batch 16).
func BenchmarkConvForward(b *testing.B) {
	rng := nn.Rng(2)
	conv := nn.NewConv2D("conv", 16, 16, 3, 1, 1, false, rng)
	x := tensor.New(16, 16, 16, 16)
	x.Randn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

// BenchmarkConvBackward measures the matching backward pass.
func BenchmarkConvBackward(b *testing.B) {
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
}

// BenchmarkFLRound measures one full FedAvg communication round at the
// Tiny scale (4 clients, parallel local updates, real serialization).
func BenchmarkFLRound(b *testing.B) {
	env := experiments.BuildCIFAREnv(experiments.Tiny, "resnet20", experiments.ClientSet{Clients: 4, Ratio: 1}, 1)
	algo := experiments.NewAlgorithm("fedavg", experiments.Tiny, 1)
	algo.Setup(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Round(env, i, env.SampleClients())
	}
}

// BenchmarkSPATLRound measures one full SPATL round (selection agent,
// sparse payloads, gradient control) at the Tiny scale.
func BenchmarkSPATLRound(b *testing.B) {
	env := experiments.BuildCIFAREnv(experiments.Tiny, "resnet20", experiments.ClientSet{Clients: 4, Ratio: 1}, 1)
	algo := experiments.NewAlgorithm("spatl", experiments.Tiny, 1)
	algo.Setup(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Round(env, i, env.SampleClients())
	}
}

// ---- wire-and-aggregate micro-benchmarks ----

// benchVec is a model-sized payload for the codec benchmarks (64k
// float32 ≈ a small encoder).
const benchVec = 1 << 16

func benchValues(seed int64) []float32 {
	rng := nn.Rng(seed)
	v := make([]float32, benchVec)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// benchSparse builds a ~50%-dense sorted-run payload over benchVec.
func benchSparse(seed int64) *comm.Sparse {
	rng := nn.Rng(seed)
	s := &comm.Sparse{}
	for start := rng.Intn(8); start < benchVec; start += 32 + rng.Intn(32) {
		l := 8 + rng.Intn(24)
		if start+l > benchVec {
			l = benchVec - start
		}
		s.Ranges = append(s.Ranges, comm.Range{Start: uint32(start), Len: uint32(l)})
		for k := 0; k < l; k++ {
			s.Values = append(s.Values, float32(rng.NormFloat64()))
		}
	}
	return s
}

// BenchmarkEncodeDense measures the bulk dense serializer on the reused
// buffer path the round loops use.
func BenchmarkEncodeDense(b *testing.B) {
	v := benchValues(9)
	dst := make([]byte, comm.DenseLen(len(v)))
	b.SetBytes(4 * benchVec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = comm.EncodeDenseInto(dst, v)
	}
}

// BenchmarkRefEncodeDense measures the retained scalar reference encoder.
func BenchmarkRefEncodeDense(b *testing.B) {
	v := benchValues(9)
	b.SetBytes(4 * benchVec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comm.RefEncodeDense(v)
	}
}

// BenchmarkDecodeDense measures the bulk dense deserializer.
func BenchmarkDecodeDense(b *testing.B) {
	buf := comm.EncodeDense(benchValues(9))
	dst := make([]float32, benchVec)
	b.SetBytes(4 * benchVec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = comm.DecodeDenseInto(dst, buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefDecodeDense measures the retained scalar reference decoder.
func BenchmarkRefDecodeDense(b *testing.B) {
	buf := comm.EncodeDense(benchValues(9))
	b.SetBytes(4 * benchVec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comm.RefDecodeDense(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeSparse measures the sparse (salient-delta) serializer.
func BenchmarkEncodeSparse(b *testing.B) {
	s := benchSparse(10)
	dst := make([]byte, s.EncodedLen())
	b.SetBytes(int64(4 * len(s.Values)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = comm.EncodeSparseInto(dst, s)
	}
}

// BenchmarkDecodeSparse measures the sparse deserializer on the pooled
// reuse path the server uses.
func BenchmarkDecodeSparse(b *testing.B) {
	s := benchSparse(10)
	buf := comm.EncodeSparse(s)
	var out comm.Sparse
	b.SetBytes(int64(4 * len(s.Values)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := comm.DecodeSparseInto(&out, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScatterAdd measures the per-index aggregation primitive
// (eq. 12's inner loop) at ~50% density.
func BenchmarkScatterAdd(b *testing.B) {
	s := benchSparse(11)
	sum := make([]float32, benchVec)
	count := make([]int32, benchVec)
	b.SetBytes(int64(4 * len(s.Values)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comm.ScatterAdd(sum, count, s)
	}
}

// BenchmarkSPATLAggregate measures the full eq. 12 server reduction —
// 8 sparse client uploads, chunked over the parameter dimension with
// fixed client order per index.
func BenchmarkSPATLAggregate(b *testing.B) {
	uploads := make([]*comm.Sparse, 8)
	for i := range uploads {
		uploads[i] = benchSparse(int64(20 + i))
	}
	sum := make([]float32, benchVec)
	count := make([]int32, benchVec)
	state := benchValues(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Parallel(benchVec, func(lo, hi int) {
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
}

// BenchmarkWeightedAverage measures the dense server reduction shared by
// the baseline algorithms: 8 clients, model-sized states.
func BenchmarkWeightedAverage(b *testing.B) {
	states := make([][]float32, 8)
	weights := make([]float64, 8)
	for i := range states {
		states[i] = benchValues(int64(30 + i))
		weights[i] = float64(50 + i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if algo.WeightedAverage(states, weights) == nil {
			b.Fatal("nil average")
		}
	}
}
