package models

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// releaseSpec is the benchmark's client model.
var releaseSpec = Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}

// releaseSpecs adds the other layer chains: VGG's max pools and dropout
// head, and the LEAF CNN's biased convolutions, flatten and linear layers.
var releaseSpecs = []Spec{
	releaseSpec,
	{Arch: "vgg11", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25, Dropout: 0.3},
	{Arch: "cnn2", Classes: 10, InC: 1, H: 16, W: 16, Width: 0.25},
}

// trainSteps runs SGD steps on m over seeded batches whose sizes change as
// a client's do (a short last batch, then full ones again) and returns m's
// state: weights and BatchNorm statistics. With release set it ends a pass
// after every step, as LocalSGD and eval do, then runs an evaluation
// forward at another batch size, so the next step finds its layers'
// buffers gone or shaped for evaluation, and fills the scratch pool with
// NaNs a layer that trusted pooled contents would pick up.
func trainSteps(m *SplitModel, release bool) []float32 {
	spec := m.Spec
	params := m.Params()
	opt := nn.NewSGD(params, 0.05, 0.9, 1e-4)
	rng := nn.Rng(11)
	probe := tensor.New(3, spec.InC, spec.H, spec.W)
	probe.Randn(rng, 1)
	for _, n := range []int{16, 16, 8, 16, 5, 16} {
		x := tensor.New(n, spec.InC, spec.H, spec.W)
		x.Randn(rng, 1)
		y := make([]int, n)
		for i := range y {
			y[i] = rng.Intn(spec.Classes)
		}
		nn.ZeroGrad(params)
		_, grad := nn.SoftmaxCrossEntropy(m.Forward(x, true), y)
		m.Backward(grad)
		opt.Step()
		if release {
			m.Release()
			poisonScratch()
			m.Forward(probe, false)
		}
	}
	return m.State(ScopeAll)
}

// poisonScratch leaves a NaN-filled buffer in every scratch size class the
// quarter-width releaseSpecs draw from.
func poisonScratch() {
	for c := 6; c <= 16; c++ {
		s := tensor.GetScratch(1 << c)
		for i := range s {
			s[i] = float32(math.NaN())
		}
		tensor.PutScratch(s)
	}
}

// sameBits fails unless got is want bit for bit and finite throughout: a
// NaN from the poisoned pool can reach both runs, as the straight run also
// draws its transient arrays from the pool.
func sameBits(t *testing.T, what string, want, got []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: state[%d] is %x, want %x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
		if math.IsNaN(float64(got[i])) || math.IsInf(float64(got[i]), 0) {
			t.Fatalf("%s: state[%d] is %v", what, i, got[i])
		}
	}
}

// TestReleaseBetweenStepsIsBitwise: a model trained straight through and
// a twin that releases after every step and evaluates at another batch
// size in between end with the same weights and BatchNorm statistics, bit
// for bit, at GOMAXPROCS 1 and 2, for resnet20, vgg11 and cnn2. Every
// array a layer draws has unspecified contents, so this is also the check
// that each kernel writes all of what it returns.
func TestReleaseBetweenStepsIsBitwise(t *testing.T) {
	for _, spec := range releaseSpecs {
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			want := trainSteps(Build(spec, 5), false)
			got := trainSteps(Build(spec, 5), true)
			runtime.GOMAXPROCS(prev)
			sameBits(t, fmt.Sprintf("%s at GOMAXPROCS %d", spec.Arch, procs), want, got)
		}
	}
}

// TestReleaseConcurrentLanes: two lanes train different client models at
// once, each releasing after every step into the one shared scratch pool,
// and each ends where it ends alone. Run under -race it is also the data
// race check on a released buffer changing hands between lanes.
func TestReleaseConcurrentLanes(t *testing.T) {
	seeds := []int64{6, 7}
	want := make([][]float32, len(seeds))
	for i, s := range seeds {
		want[i] = trainSteps(Build(releaseSpec, s), false)
	}
	got := make([][]float32, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = trainSteps(Build(releaseSpec, s), true)
		}()
	}
	wg.Wait()
	for i := range seeds {
		sameBits(t, "lane", want[i], got[i])
	}
}
