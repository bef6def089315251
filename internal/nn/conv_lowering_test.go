package nn

import (
	"math/rand"
	"testing"

	"spatl/internal/tensor"
)

// refConvForward computes a batched 2D convolution with the naive im2col +
// reference-matmul lowering, the ground truth every forward route
// (implicit GEMM and row-major lowering) must match.
func refConvForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
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
		prod := tensor.RefMatMul(tensor.Wrap(nil, c.weight.W.Data, c.OutC, colRows), col)
		oi := out.Data[i*outStride : (i+1)*outStride]
		copy(oi, prod.Data)
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

// TestConv2DForwardLoweringPaths exercises the forward routes against
// the naive reference: stride 1 takes the implicit GEMM and strided
// geometries the row-major lowering, for dense and for mostly-zero
// weights (SPATL pruned filters) alike.
func TestConv2DForwardLoweringPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name              string
		k, stride, pad    int
		useBias, sparsify bool
	}{
		{"dense3x3", 3, 1, 1, true, false},
		{"dense3x3stride2", 3, 2, 1, false, false},
		{"dense5x5", 5, 1, 2, false, false},
		{"sparse3x3", 3, 1, 1, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv2D("c", 3, 6, tc.k, tc.stride, tc.pad, tc.useBias, rng)
			if tc.sparsify {
				for i := range c.weight.W.Data {
					if i%5 != 0 { // 80% zeros
						c.weight.W.Data[i] = 0
					}
				}
			}
			x := tensor.New(2, 3, 9, 7)
			for i := range x.Data {
				x.Data[i] = rng.Float32()*2 - 1
			}
			want := refConvForward(c, x)
			got := c.Forward(x, false)
			if len(got.Data) != len(want.Data) {
				t.Fatalf("output length %d, want %d", len(got.Data), len(want.Data))
			}
			for i := range want.Data {
				diff := got.Data[i] - want.Data[i]
				if diff < 0 {
					diff = -diff
				}
				if diff > 1e-6 {
					t.Fatalf("output[%d] = %v, ref %v (diff %v)", i, got.Data[i], want.Data[i], diff)
				}
			}
		})
	}
}
