//go:build !race

// Under the race detector sync.Pool drops a quarter of what is Put, so the
// scratch pools miss at random and an allocation count means nothing.

package models

import (
	"runtime"
	"sync"
	"testing"

	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// stepAllocBudget is the most objects one steady-state resnet20 training
// step may allocate (it allocates 3, the fresh loss gradient
// SoftmaxCrossEntropy returns; it was 6 while Flatten made new views, and
// 199 when every tensor.Reuse call and every nested tensor.Parallel
// region allocated).
const stepAllocBudget = 16

// trainStep returns one SGD step — what algo.LocalSGD runs per batch —
// over its own resnet20 at the benchmark's geometry, warmed up so layer
// buffers and scratch classes exist.
func trainStep(seed int64) func() { return stepCycle(seed, 16) }

// stepCycle is trainStep over a cycle of batch sizes: the function it
// returns runs one SGD step per entry of sizes, in order.
func stepCycle(seed int64, sizes ...int) func() {
	spec := Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	m := Build(spec, seed)
	params := m.Params()
	opt := nn.NewSGD(params, 0.02, 0.9, 1e-4)
	rng := nn.Rng(seed)
	xs, ys := make([]*tensor.Tensor, len(sizes)), make([][]int, len(sizes))
	for b, n := range sizes {
		xs[b] = tensor.New(n, spec.InC, spec.H, spec.W)
		xs[b].Randn(rng, 1)
		ys[b] = make([]int, n)
		for i := range ys[b] {
			ys[b][i] = rng.Intn(spec.Classes)
		}
	}
	step := func() {
		for b := range xs {
			nn.ZeroGrad(params)
			_, grad := nn.SoftmaxCrossEntropy(m.Forward(xs[b], true), ys[b])
			m.Backward(grad)
			opt.Step()
		}
	}
	step()
	step()
	return step
}

// TestTrainStepAllocationGate counts, never times: a steady-state step
// stays within stepAllocBudget objects at GOMAXPROCS 1, and inside a
// saturated region — two clients training on two cores, where every
// region a layer starts must run on its caller without allocating a job
// or a closure.
func TestTrainStepAllocationGate(t *testing.T) {
	// Everything up to the saturated region runs at GOMAXPROCS 1, where no
	// region is dispatched: the pool's queue is then empty when the
	// region of two is sent, and a worker is sure to take its second lane.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	a := testing.AllocsPerRun(20, trainStep(1))
	t.Logf("GOMAXPROCS 1: %v objects per step", a)
	if a > stepAllocBudget {
		t.Errorf("a training step at GOMAXPROCS 1 allocates %v objects, budget %d", a, stepAllocBudget)
	}

	// testing.AllocsPerRun pins GOMAXPROCS to 1, so the saturated case
	// reads the same counter (runtime.MemStats.Mallocs) itself. The two
	// lanes meet at a barrier before the first step and after the last:
	// both are inside the region's body for as long as either steps (a
	// lane left alone would, rightly, dispatch to the idle core).
	const steps = 20
	lanes := []func(){trainStep(2), trainStep(3)}
	runtime.GOMAXPROCS(2)
	saturated := func() {
		var entered, stepped sync.WaitGroup
		entered.Add(len(lanes))
		stepped.Add(len(lanes))
		tensor.Parallel(len(lanes), func(lo, hi int) {
			if hi-lo != 1 {
				panic("a region of two on an idle two-core pool ran on one goroutine")
			}
			entered.Done()
			entered.Wait()
			for i := 0; i < steps; i++ {
				lanes[lo]()
			}
			stepped.Done()
			stepped.Wait()
		})
	}
	saturated()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	saturated()
	runtime.ReadMemStats(&after)
	a = float64(after.Mallocs-before.Mallocs) / float64(len(lanes)*steps)
	t.Logf("saturated region at GOMAXPROCS 2: %.1f objects per step", a)
	if a > stepAllocBudget {
		t.Errorf("a training step inside a saturated region allocates %.1f objects, budget %d", a, stepAllocBudget)
	}
}

// TestShortBatchStepAllocationGate counts a steady 16 → 8 → 16 step
// sequence — a client's short last batch and the full batch after it: a
// layer buffer whose batch changes is re-sliced within its array, so a
// step at a new batch size stays within stepAllocBudget objects like any
// other.
func TestShortBatchStepAllocationGate(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	sizes := []int{16, 8, 16}
	a := testing.AllocsPerRun(20, stepCycle(1, sizes...)) / float64(len(sizes))
	t.Logf("steps of %v: %.1f objects per step", sizes, a)
	if a > stepAllocBudget {
		t.Errorf("a step in a %v cycle allocates %.1f objects, budget %d", sizes, a, stepAllocBudget)
	}
}

// TestReleasedUpdateAllocationGate counts, never times, a local update —
// two SGD steps, a full batch and a short one, then Release — on a model
// the previous update released: Release hands every layer's array back
// to the scratch pool but leaves the layer its tensor header, so the
// update refills headers from the pool and allocates nothing at all.
// Before headers survived Release, every layer buffer cost a new header
// and shape slice once per update.
func TestReleasedUpdateAllocationGate(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	spec := Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	m := Build(spec, 4)
	params := m.Params()
	opt := nn.NewSGD(params, 0.02, 0.9, 1e-4)
	rng := nn.Rng(5)
	var xs []*tensor.Tensor
	var ys [][]int
	for _, n := range []int{16, 8} {
		x := tensor.New(n, spec.InC, spec.H, spec.W)
		x.Randn(rng, 1)
		y := make([]int, n)
		for i := range y {
			y[i] = rng.Intn(spec.Classes)
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	var grad *tensor.Tensor
	update := func() {
		for b := range xs {
			nn.ZeroGrad(params)
			_, grad = nn.SoftmaxCrossEntropyInto(grad, m.Forward(xs[b], true), ys[b])
			m.Backward(grad)
			opt.Step()
		}
		m.Release()
		tensor.Recycle(grad)
	}
	update()
	a := testing.AllocsPerRun(10, update)
	t.Logf("%v objects per released update", a)
	if a != 0 {
		t.Errorf("an update on a released model allocates %v objects, want 0", a)
	}
}
