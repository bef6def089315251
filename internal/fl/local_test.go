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
