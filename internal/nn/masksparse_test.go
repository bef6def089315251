package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spatl/internal/tensor"
)

// maskConvWeights zeroes a fraction of the conv's filter rows (the shape
// a channel mask produces) and bumps the weight version, as pruning does.
func maskConvWeights(c *Conv2D, frac float64, rng *rand.Rand) {
	w := c.weight.W
	rows, cols := w.Dim(0), w.Dim(1)
	for r := 0; r < rows; r++ {
		if rng.Float64() < frac {
			row := w.Data[r*cols : (r+1)*cols]
			for j := range row {
				row[j] = 0
			}
		}
	}
	// At least one zero row and one surviving row, so both kernels always
	// have work and skips.
	for j := 0; j < cols; j++ {
		w.Data[j] = 0
	}
	if rows > 1 && w.Data[cols] == 0 {
		w.Data[cols] = 0.5
	}
	c.weight.Bump()
}

// runMaskedConv runs one forward+backward through a masked conv and
// returns (out, dx, dW) snapshots.
func runMaskedConv(t *testing.T, dispatch bool, procs int) (out, dx, dw []float32) {
	t.Helper()
	prev := maskStaticDispatch
	maskStaticDispatch = dispatch
	defer func() { maskStaticDispatch = prev }()
	prevProcs := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prevProcs)

	rng := rand.New(rand.NewSource(21))
	c := NewConv2D("conv", 3, 8, 3, 1, 1, true, rng)
	maskConvWeights(c, 0.7, rng)
	x := tensor.New(5, 3, 9, 9)
	x.Randn(rng, 1)
	y := c.Forward(x, true)
	dout := tensor.New(y.Dim(0), y.Dim(1), y.Dim(2), y.Dim(3))
	dout.Randn(rng, 1)
	ZeroGrad(c.Params())
	dxT := c.Backward(dout)

	// Run twice: the second pass must hit the cached pattern (no
	// version bump in between) and reproduce the first bit for bit.
	y2 := c.Forward(x, true)
	for i := range y.Data {
		if math.Float32bits(y.Data[i]) != math.Float32bits(y2.Data[i]) {
			t.Fatalf("cached-pattern forward differs from first pass at %d", i)
		}
	}

	out = append([]float32(nil), y.Data...)
	dx = append([]float32(nil), dxT.Data...)
	dw = append([]float32(nil), c.weight.G.Data...)
	return out, dx, dw
}

// TestConvMaskStaticMatchesProbe: with masked weights, the mask-static
// pattern dispatch must be bitwise identical to the per-minibatch
// probing dispatch it replaces, at GOMAXPROCS 1, 2 and 4.
func TestConvMaskStaticMatchesProbe(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		wantOut, wantDx, wantDw := runMaskedConv(t, false, procs)
		gotOut, gotDx, gotDw := runMaskedConv(t, true, procs)
		for name, pair := range map[string][2][]float32{
			"out": {gotOut, wantOut}, "dx": {gotDx, wantDx}, "dw": {gotDw, wantDw},
		} {
			got, want := pair[0], pair[1]
			if len(got) != len(want) {
				t.Fatalf("procs=%d %s: length mismatch", procs, name)
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("procs=%d %s: index %d differs: %v vs %v", procs, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestConvPatternInvalidatesOnBump: mutating the weights must re-derive
// the pattern — a stale pattern would silently miscompute after an
// optimizer step un-zeroes or re-zeroes entries.
func TestConvPatternInvalidatesOnBump(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := NewConv2D("conv", 2, 6, 3, 1, 1, false, rng)
	maskConvWeights(c, 0.8, rng)
	x := tensor.New(2, 2, 6, 6)
	x.Randn(rng, 1)
	y1 := append([]float32(nil), c.Forward(x, false).Data...)

	// Flip one masked row back on; without invalidation the pattern
	// would still skip it.
	cols := c.weight.W.Dim(1)
	zeroRow := -1
	for r := 0; r < c.OutC; r++ {
		allZero := true
		for j := 0; j < cols; j++ {
			if c.weight.W.Data[r*cols+j] != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			zeroRow = r
			break
		}
	}
	if zeroRow < 0 {
		t.Fatal("no fully masked row to flip")
	}
	for j := 0; j < cols; j++ {
		c.weight.W.Data[zeroRow*cols+j] = 1
	}
	c.weight.Bump()
	y2 := c.Forward(x, false)
	changed := false
	outStride := y2.Dim(2) * y2.Dim(3)
	row := y2.Data[zeroRow*outStride : (zeroRow+1)*outStride]
	for _, v := range row {
		if v != 0 {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("un-masking a row produced no output: stale mask pattern survived Bump")
	}
	_ = y1
}

// TestLinearMaskStaticMatchesRef: a masked linear layer must produce the
// tensor-level gather-dot reference results through both forward and
// backward, at GOMAXPROCS 1, 2 and 4.
func TestLinearMaskStaticMatchesRef(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prevProcs := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(23))
		l := NewLinear("fc", 24, 10, rng)
		// Mask 60% of weight entries.
		for i := range l.weight.W.Data {
			if rng.Float64() < 0.6 {
				l.weight.W.Data[i] = 0
			}
		}
		l.weight.Bump()
		x := tensor.New(7, 24)
		x.Randn(rng, 1)
		y := l.Forward(x, true)

		pat := tensor.BuildMaskPat(l.weight.W.Data, 10, 24)
		want := make([]float32, 7*10)
		tensor.MatMulTransBMaskPatSlice(want, x.Data, l.weight.W.Data, pat, 7)
		for i := 0; i < 7; i++ {
			tensor.VecAdd(want[i*10:(i+1)*10], l.bias.W.Data)
		}
		for i := range want {
			if math.Float32bits(y.Data[i]) != math.Float32bits(want[i]) {
				t.Fatalf("procs=%d: forward index %d differs", procs, i)
			}
		}

		dout := tensor.New(7, 10)
		dout.Randn(rng, 1)
		ZeroGrad(l.Params())
		dx := l.Backward(dout)
		wantDx := make([]float32, 7*24)
		tensor.MatMulMaskPatRightSlice(wantDx, dout.Data, l.weight.W.Data, pat, 7)
		for i := range wantDx {
			if math.Float32bits(dx.Data[i]) != math.Float32bits(wantDx[i]) {
				t.Fatalf("procs=%d: dx index %d differs", procs, i)
			}
		}
		runtime.GOMAXPROCS(prevProcs)
	}
}
