package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"spatl/internal/tensor"
)

// perImageConvForward is the lowered per-image forward formulation on
// the scalar reference kernels of tensor/ref.go: one row-major im2col and
// one W·col product per image. Every Conv2D route must reproduce it bit
// for bit (each output is the same ascending-(ch,ky,kx) dot chain).
func perImageConvForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	d := tensor.NewConvDims(c.InC, h, w, c.OutC, c.K, c.Stride, c.Pad)
	colRows := c.InC * c.K * c.K
	cols := d.OutH * d.OutW
	out := tensor.New(n, c.OutC, d.OutH, d.OutW)
	col := tensor.New(colRows, cols)
	inStride := c.InC * h * w
	outStride := c.OutC * cols
	for i := 0; i < n; i++ {
		tensor.Im2Col(col.Data, x.Data[i*inStride:(i+1)*inStride], d)
		oi := out.Data[i*outStride : (i+1)*outStride]
		copy(oi, tensor.RefMatMul(c.weight.W, col).Data)
		if c.useBias {
			for oc := 0; oc < c.OutC; oc++ {
				b := c.bias.W.Data[oc]
				row := oi[oc*cols : (oc+1)*cols]
				for j := range row {
					row[j] += b
				}
			}
		}
	}
	return out
}

// perImageConvBackward is the lowered per-image backward formulation on
// the scalar reference kernels: dW/db accumulated per image (product
// first, then one add) into per-shard buffers merged in fixed order, and
// Wᵀ·g + col2im for dx. Shard boundaries replicate Conv2D.Backward's, so
// the comparison is bitwise.
func perImageConvBackward(c *Conv2D, x, dout *tensor.Tensor) (dx *tensor.Tensor, dw []float32, db []float32) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	d := tensor.NewConvDims(c.InC, h, w, c.OutC, c.K, c.Stride, c.Pad)
	colRows := c.InC * c.K * c.K
	cols := d.OutH * d.OutW
	inStride := c.InC * h * w
	outStride := c.OutC * cols
	dx = tensor.New(n, c.InC, h, w)
	dw = make([]float32, c.OutC*colRows)
	db = make([]float32, c.OutC)
	col := tensor.New(colRows, cols)
	for lo := 0; lo < n; lo += shardImages {
		hi := min(lo+shardImages, n)
		sdw := make([]float32, c.OutC*colRows)
		sdb := make([]float64, c.OutC)
		for i := lo; i < hi; i++ {
			tensor.Im2Col(col.Data, x.Data[i*inStride:(i+1)*inStride], d)
			gi := tensor.Wrap(nil, dout.Data[i*outStride:(i+1)*outStride], c.OutC, cols)
			for j, v := range tensor.RefMatMulTransB(gi, col).Data {
				sdw[j] += v
			}
			tensor.Col2Im(dx.Data[i*inStride:(i+1)*inStride], tensor.RefMatMulTransA(c.weight.W, gi).Data, d)
			if c.useBias {
				for oc := 0; oc < c.OutC; oc++ {
					var sum float64
					for _, v := range gi.Data[oc*cols : (oc+1)*cols] {
						sum += float64(v)
					}
					sdb[oc] += sum
				}
			}
		}
		for i, v := range sdw {
			dw[i] += v
		}
		for oc, v := range sdb {
			db[oc] += float32(v)
		}
	}
	return dx, dw, db
}

// checkConvAgainstLowered runs Forward and Backward of c on a random
// batch and compares output, dx, dW and db bitwise against the lowered
// per-image reference.
func checkConvAgainstLowered(t *testing.T, c *Conv2D, rng *rand.Rand, n, h, w int) {
	t.Helper()
	x := tensor.New(n, c.InC, h, w)
	x.Randn(rng, 1)
	wantOut := perImageConvForward(c, x)
	gotOut := c.Forward(x, true)
	compareBits(t, "forward", gotOut.Data, wantOut.Data)

	dout := tensor.New(gotOut.Shape()...)
	dout.Randn(rng, 1)
	wantDx, wantDw, wantDb := perImageConvBackward(c, x, dout)
	ZeroGrad(c.Params())
	gotDx := c.Backward(dout)
	compareBits(t, "dx", gotDx.Data, wantDx.Data)
	compareBits(t, "dW", c.weight.G.Data, wantDw)
	if c.useBias {
		compareBits(t, "db", c.bias.G.Data, wantDb)
	}
}

// TestConv2DBatchFusedBitwise runs Forward/Backward over geometries with
// remainder GEMM rows and columns and checks every output, input gradient
// and parameter gradient bit against the per-image formulation.
func TestConv2DBatchFusedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, tc := range []struct {
		name                          string
		n, inC, outC, h, w, k, st, pd int
		bias                          bool
	}{
		{"3x3pad1", 5, 3, 8, 9, 7, 3, 1, 1, true},
		{"stride2oddOutC", 4, 2, 17, 8, 8, 3, 2, 1, false},
		{"5x5", 3, 1, 16, 11, 5, 5, 1, 2, true},
		{"singleImage", 1, 4, 6, 6, 6, 3, 1, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv2D("c", tc.inC, tc.outC, tc.k, tc.st, tc.pd, tc.bias, rng)
			checkConvAgainstLowered(t, c, rng, tc.n, tc.h, tc.w)

			// Nothing derived from the weights may outlive a weight
			// write: a second Forward has to match a fresh reference of
			// the new weights.
			c.weight.W.Set(c.weight.W.Data[0]+1, 0, 0)
			x := tensor.New(tc.n, tc.inC, tc.h, tc.w)
			x.Randn(rng, 1)
			compareBits(t, "forward after weight mutation",
				c.Forward(x, true).Data, perImageConvForward(c, x).Data)
		})
	}
}

// TestConv2DImplicitMatchesLowered sweeps the stride-1 implicit-GEMM
// route over kernel sizes, paddings (none, same, wider than same),
// non-square inputs, channel counts that are not multiples of the 4-row
// tile and batches of one and of odd size, and checks forward, dx and dW
// bitwise against the lowered reference. The strided cases prove the
// routing: the implicit route addresses lowered rows as contiguous views,
// which a stride-2 geometry does not have, so they pass only through the
// lowered route — and a second input size through the same layer proves
// the tap table follows the geometry.
func TestConv2DImplicitMatchesLowered(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, k := range []int{1, 3, 5} {
		for _, pad := range []int{0, 1, 2} {
			for _, ch := range [][2]int{{3, 5}, {6, 17}} {
				for _, n := range []int{1, 3} {
					name := fmt.Sprintf("k%dpad%d_c%dto%d_n%d", k, pad, ch[0], ch[1], n)
					t.Run(name, func(t *testing.T) {
						c := NewConv2D("c", ch[0], ch[1], k, 1, pad, k == 5, rng)
						checkConvAgainstLowered(t, c, rng, n, 7, 10)
						checkConvAgainstLowered(t, c, rng, n, 6, 5)
					})
				}
			}
		}
	}
	for _, tc := range []struct{ k, pad int }{{3, 1}, {1, 0}} {
		t.Run(fmt.Sprintf("stride2k%d", tc.k), func(t *testing.T) {
			c := NewConv2D("c", 5, 6, tc.k, 2, tc.pad, false, rng)
			checkConvAgainstLowered(t, c, rng, 3, 9, 8)
		})
	}
	// Mostly-zero weights (SPATL's pruned filters) run the same dense
	// routes; their zero terms must leave every output and gradient bit as
	// the reference forms it.
	for _, stride := range []int{1, 2} {
		t.Run(fmt.Sprintf("sparse_stride%d", stride), func(t *testing.T) {
			c := NewConv2D("c", 5, 6, 3, stride, 1, true, rng)
			for i := range c.weight.W.Data {
				if i%5 != 0 {
					c.weight.W.Data[i] = 0
				}
			}
			checkConvAgainstLowered(t, c, rng, 5, 9, 8)
		})
	}
}

// TestRawWeightWriteSeenByNextForward writes W.Data directly, with no call
// to tell the layer, and requires the next Forward to equal the reference
// of the new weights bit for bit: no layer may keep anything derived from
// its weights between passes. The linear case writes a dense weight (a
// cached Wᵀ would go stale); the conv case masks most filters, runs a
// pass, then makes a previously zero weight nonzero (a cached nonzero
// pattern would skip it).
func TestRawWeightWriteSeenByNextForward(t *testing.T) {
	rng := rand.New(rand.NewSource(80))

	l := NewLinear("l", 24, 10, rng)
	l.bias.W.Randn(rng, 1)
	linearRef := func(x *tensor.Tensor) []float32 {
		y := tensor.RefMatMulTransB(x, l.weight.W)
		for i := 0; i < x.Dim(0); i++ {
			for j, b := range l.bias.W.Data {
				y.Data[i*l.Out+j] += b
			}
		}
		return y.Data
	}

	c := NewConv2D("c", 3, 6, 3, 1, 1, true, rng)
	c.bias.W.Randn(rng, 1)
	cw, cols := c.weight.W, c.weight.W.Dim(1)
	for r := 0; r < c.OutC; r++ {
		if r%3 != 0 { // two filters in three pruned
			clear(cw.Data[r*cols : (r+1)*cols])
		}
	}

	for _, tc := range []struct {
		name  string
		layer Layer
		x     *tensor.Tensor
		write func() // the raw write, made after one pass
		ref   func(x *tensor.Tensor) []float32
	}{
		{"linear", l, tensor.New(7, 24), func() { l.weight.W.Data[3*24+5] += 1 }, linearRef},
		{"conv", c, tensor.New(2, 3, 7, 6), func() { cw.Data[1*cols+4] = 0.75 },
			func(x *tensor.Tensor) []float32 { return perImageConvForward(c, x).Data }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.x.Randn(rng, 1)
			compareBits(t, "forward before the write", tc.layer.Forward(tc.x, false).Data, tc.ref(tc.x))
			tc.write()
			compareBits(t, "forward after the write", tc.layer.Forward(tc.x, false).Data, tc.ref(tc.x))
		})
	}
}

// TestConvLinearConcurrentHammer trains a conv and a linear layer from
// four goroutines at once, each on its own pair of layers, so their
// Forward/Backward passes nest tensor.Parallel regions and share the
// scratch pool. Every goroutine must reproduce the serial run bit for
// bit; under -race this also proves per-worker scratch is never shared.
func TestConvLinearConcurrentHammer(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n, inC, outC, hw = 8, 3, 6, 8
	run := func() []float32 {
		rng := rand.New(rand.NewSource(79))
		conv := NewConv2D("c", inC, outC, 3, 1, 1, true, rng)
		lin := NewLinear("l", outC*hw*hw, 10, rng)
		x := tensor.New(n, inC, hw, hw)
		x.Randn(rng, 1)
		g := tensor.New(n, 10)
		g.Randn(rng, 1)
		var res []float32
		for it := 0; it < 3; it++ {
			ZeroGrad(conv.Params())
			ZeroGrad(lin.Params())
			h := conv.Forward(x, true)
			y := lin.Forward(tensor.Wrap(nil, h.Data, n, outC*hw*hw), true)
			dh := lin.Backward(g)
			dx := conv.Backward(tensor.Wrap(nil, dh.Data, n, outC, hw, hw))
			res = append(res, y.Data...)
			res = append(res, dx.Data...)
			res = append(res, conv.weight.G.Data...)
			res = append(res, lin.weight.G.Data...)
		}
		return res
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := run()
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Errorf("goroutine %d: value %d = %x, serial run %x", g, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func compareBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d]: layer %08x (%v), per-image reference %08x (%v)",
				what, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}
