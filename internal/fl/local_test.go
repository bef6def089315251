package fl

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/data"
	"spatl/internal/eval"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// TestLongestFirstOrder pins the claim order of ParallelClients as a pure
// function of the sizes: descending, equal sizes by position.
func TestLongestFirstOrder(t *testing.T) {
	for _, tc := range []struct {
		sizes, want []int
	}{
		{nil, []int{}},
		{[]int{7}, []int{0}},
		{[]int{64, 96, 288, 352}, []int{3, 2, 1, 0}}, // the large clients have the high IDs
		{[]int{5, 9, 5, 9, 5}, []int{1, 3, 0, 2, 4}},
		{[]int{3, 3, 3}, []int{0, 1, 2}},
	} {
		if got := longestFirst(tc.sizes); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("longestFirst(%v) = %v, want %v", tc.sizes, got, tc.want)
		}
	}
}

// TestParallelClientsRunsEveryPositionOnce checks the cursor hands every
// position to exactly one goroutine with more clients than cores, fewer,
// one, and none.
func TestParallelClientsRunsEveryPositionOnce(t *testing.T) {
	for _, tc := range []struct{ procs, clients int }{{2, 7}, {4, 2}, {4, 4}, {1, 5}, {2, 1}, {2, 0}} {
		prev := runtime.GOMAXPROCS(tc.procs)
		sizes := make([]int, tc.clients)
		for i := range sizes {
			sizes[i] = 10 + (i*7)%5
		}
		for rep := 0; rep < 50; rep++ {
			runs := make([]atomic.Int32, tc.clients)
			ParallelClients(sizes, func(pos int) { runs[pos].Add(1) })
			for pos := range runs {
				if n := runs[pos].Load(); n != 1 {
					t.Fatalf("GOMAXPROCS %d, %d clients: position %d ran %d times", tc.procs, tc.clients, pos, n)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// layerHeldBytes is what m's layers hold between passes: the float32
// storage behind every unexported tensor or float32-slice field of every
// layer (activations, gradients, normalized inputs, cached inputs).
// Parameters sit behind *nn.Param and running statistics in exported
// fields, so neither counts.
func layerHeldBytes(m *models.SplitModel) int {
	tensorT, sliceT := reflect.TypeOf((*tensor.Tensor)(nil)), reflect.TypeOf([]float32(nil))
	held := 0
	for _, root := range []*nn.Sequential{m.Encoder, m.Predictor} {
		nn.Walk(root, func(l nn.Layer) {
			v := reflect.ValueOf(l).Elem()
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				switch {
				case v.Type().Field(i).IsExported():
				case f.Type() == tensorT && !f.IsNil():
					held += 4 * f.Elem().FieldByName("Data").Cap()
				case f.Type() == sliceT:
					held += 4 * f.Cap()
				}
			}
		})
	}
	return held
}

// passPeakBytes runs fn and returns the most bytes of scratch-pool arrays
// out at once while it ran, beyond those out before: the arrays a pass
// holds plus the transient ones it draws, wherever in the pass the two
// peak together.
func passPeakBytes(fn func()) int64 {
	tensor.ResetScratchPeak()
	before, _ := tensor.ScratchBytes()
	fn()
	_, peak := tensor.ScratchBytes()
	return peak - before
}

// TestPassMemoryGate counts, never times: a batch-16 training step —
// forward, loss, backward, optimizer step, on a released model — and a
// batch-64 evaluation pass, its batch array included, stay within their
// budgets in MiB of scratch-pool arrays out at once, on the benchmark's
// resnet20 at GOMAXPROCS 1 and 2 and at the paper's geometry (width 1.0,
// 32×32, training batch 64) at GOMAXPROCS 2; and a local update and an evaluation hand
// back every array they drew. A training pass keeps only what its
// Backward reads and an evaluation pass hands each activation back once
// the next layer has read it; when every layer kept its output and input
// gradient, and BatchNorm its normalized input, from the first Forward
// until Release, the same passes held 5.4 and 9.0 MiB on the benchmark's
// model and 341 and 144 MiB at the paper's geometry.
func TestPassMemoryGate(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		spec                    models.Spec
		batch                   int
		procs                   []int
		trainBudget, evalBudget float64 // MiB
	}{
		{"benchmark", models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}, 16, []int{1, 2}, 2.2, 1.8},
		{"paper", models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 32, W: 32, Width: 1}, 64, []int{2}, 120, 16},
	} {
		spec := tc.spec
		ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 10, H: spec.H, W: spec.W, Noise: 0.9}, 64, 3, 4)
		for _, procs := range tc.procs {
			prev := runtime.GOMAXPROCS(procs)
			m := models.Build(spec, 1)
			params := m.Params()
			opt := nn.NewSGD(params, 0.05, 0.9, 1e-4)
			x, y := ds.Batch(ds.Batches(rand.New(rand.NewSource(5)), tc.batch)[0])
			step := func() {
				nn.ZeroGrad(params)
				_, grad := nn.SoftmaxCrossEntropy(m.Forward(x, true), y)
				m.Backward(grad)
				opt.Step()
			}
			step()
			m.Release()
			train := float64(passPeakBytes(step)) / (1 << 20)
			m.Release()
			opt.Release()
			evalPass := float64(passPeakBytes(func() { eval.Accuracy(m, ds, 64) })) / (1 << 20)
			t.Logf("%s, GOMAXPROCS %d: batch-%d training step %.2f MiB, batch-64 evaluation pass %.2f MiB", tc.name, procs, tc.batch, train, evalPass)
			if train > tc.trainBudget {
				t.Errorf("%s, GOMAXPROCS %d: a batch-%d training step holds %.2f MiB at peak, budget %g", tc.name, procs, tc.batch, train, tc.trainBudget)
			}
			if evalPass > tc.evalBudget {
				t.Errorf("%s, GOMAXPROCS %d: a batch-64 evaluation pass holds %.2f MiB at peak, budget %g", tc.name, procs, evalPass, tc.evalBudget)
			}

			c := &algo.Client{Train: ds, Model: m}
			before, _ := tensor.ScratchBytes()
			algo.LocalSGD(c, algo.LocalOpts{Params: params, Epochs: 1, BatchSize: tc.batch, LR: 0.05, Momentum: 0.9}, rand.New(rand.NewSource(6)))
			eval.Accuracy(m, ds, 64)
			if after, _ := tensor.ScratchBytes(); after != before {
				t.Errorf("%s, GOMAXPROCS %d: a local update and an evaluation left %d bytes out of the scratch pool", tc.name, procs, after-before)
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestSimRoundLeavesNoLayerBuffers: after a round in which all 16 clients
// train, no client model holds a layer buffer — local training releases
// its model, so resident activations scale with the lanes, not the
// clients.
func TestSimRoundLeavesNoLayerBuffers(t *testing.T) {
	cfg := quickCfg(21)
	cfg.LocalEpochs = 1
	env := testEnvArch(t, "resnet20", 16, cfg)
	probe := env.Clients[0]
	x, _ := probe.Train.Batch([]int{0, 1})
	probe.Model.Forward(x, true)
	if layerHeldBytes(probe.Model) == 0 {
		t.Fatal("the counter sees no buffer on a model that just ran a forward pass")
	}
	probe.Model.Release()

	alg := fedAvg()
	alg.Setup(env)
	sel := env.SampleClients()
	if len(sel) != 16 {
		t.Fatalf("sampled %d clients, want all 16", len(sel))
	}
	alg.Round(env, 0, sel)
	held := 0
	for _, c := range env.Clients {
		held += layerHeldBytes(c.Model)
	}
	if held != 0 {
		t.Fatalf("after a round the client models hold %d bytes of layer buffers, want 0", held)
	}
}

// TestSimRoundEqualAcrossGOMAXPROCS runs the benchmark's kind of
// federation — resnet20, eight clients of very unequal size from a
// Dirichlet(0.3) split, half of them sampled per round — through Sim.Round
// at GOMAXPROCS 1, 2 and 4, and demands the same final model bit for bit
// and a byte-identical zero-time journal: which core trained which client,
// in what order, and whether a step's regions ran inline or on the pool
// must not be observable.
func TestSimRoundEqualAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) ([]float32, []byte) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		cfg := quickCfg(33)
		cfg.NumClients, cfg.SampleRatio = 8, 0.5
		cfg = cfg.WithDefaults()
		spec := models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}
		ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8, Noise: 0.25}, 8*60, 11, 12)
		parts := data.DirichletPartition(ds.Y, 4, 8, 0.3, 10, rand.New(rand.NewSource(5)))
		var cd []ClientData
		sizes := map[int]bool{}
		for _, p := range parts {
			tr, va := ds.Subset(p).Split(0.8)
			cd = append(cd, ClientData{Train: tr, Val: va})
			sizes[tr.Len()] = true
		}
		if len(sizes) < 4 {
			t.Fatalf("split gave only %d distinct client sizes; the test wants them unequal", len(sizes))
		}
		env := NewEnv(spec, cfg, cd)
		var journal bytes.Buffer
		tel := telemetry.New(&journal)
		tel.Journal.SetZeroTime(true)
		env.EnableTelemetry(tel)
		acfg := env.AlgoConfig()
		trainers := make([]algo.Trainer, len(env.Clients))
		for i, c := range env.Clients {
			trainers[i] = algo.NewFedAvgTrainer(c, acfg)
		}
		sim := NewSim(env, algo.NewFedAvgAggregator(env.Global, acfg), trainers)
		for r := 0; r < 3; r++ {
			sim.Round(r, env.SampleClients())
		}
		if err := tel.Journal.Flush(); err != nil {
			t.Fatal(err)
		}
		return env.Global.State(models.ScopeAll), journal.Bytes()
	}
	s1, j1 := run(1)
	for _, procs := range []int{2, 4} {
		sN, jN := run(procs)
		for i := range s1 {
			if math.Float32bits(s1[i]) != math.Float32bits(sN[i]) {
				t.Fatalf("state[%d] differs between GOMAXPROCS 1 and %d: %x vs %x", i, procs, math.Float32bits(s1[i]), math.Float32bits(sN[i]))
			}
		}
		if !bytes.Equal(j1, jN) {
			t.Fatalf("zero-time journals differ between GOMAXPROCS 1 and %d", procs)
		}
	}
}
