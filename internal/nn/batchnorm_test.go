package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spatl/internal/tensor"
)

// refBatchNorm is BatchNorm2D one channel at a time on scalar loops: each
// statistic a single float64 chain over ascending (image, position), the
// normalization and the input gradient in the operation order of the
// tensor.RefVecBN* kernels. The layer's four-abreast loops must reproduce
// it bit for bit.
type refBatchNorm struct {
	out, xhat, dx, dgamma, dbeta, runMean, runVar []float32
}

func refBatchNormTrain(x, dout *tensor.Tensor, gamma, beta []float32, momentum, eps float64) refBatchNorm {
	n, c, plane := x.Dim(0), x.Dim(1), x.Dim(2)*x.Dim(3)
	cnt := float64(n * plane)
	r := refBatchNorm{
		out: make([]float32, x.Len()), xhat: make([]float32, x.Len()), dx: make([]float32, x.Len()),
		dgamma: make([]float32, c), dbeta: make([]float32, c), runMean: make([]float32, c), runVar: make([]float32, c),
	}
	for ch := 0; ch < c; ch++ {
		each := func(fn func(at int)) {
			for i := 0; i < n; i++ {
				for j := 0; j < plane; j++ {
					fn((i*c+ch)*plane + j)
				}
			}
		}
		var sum, vs, dgamma, dbeta float64
		each(func(at int) { sum += float64(x.Data[at]) })
		mean := sum / cnt
		each(func(at int) { d := float64(x.Data[at]) - mean; vs += d * d })
		variance := vs / cnt
		inv := 1.0 / math.Sqrt(variance+eps)
		g, b := float64(gamma[ch]), float64(beta[ch])
		each(func(at int) {
			xh := (float64(x.Data[at]) - mean) * inv
			r.xhat[at] = float32(xh)
			r.out[at] = float32(g*xh + b)
		})
		r.runMean[ch] = float32((1-momentum)*0 + momentum*mean)
		r.runVar[ch] = float32((1-momentum)*1 + momentum*variance)
		each(func(at int) {
			gv := float64(dout.Data[at])
			dgamma += gv * float64(r.xhat[at])
			dbeta += gv
		})
		r.dgamma[ch], r.dbeta[ch] = float32(dgamma), float32(dbeta)
		scale := g * inv / cnt
		each(func(at int) {
			r.dx[at] = float32(scale * (cnt*float64(dout.Data[at]) - dbeta - float64(r.xhat[at])*dgamma))
		})
	}
	return r
}

// TestBatchNormMatchesPerChannelReference sweeps channel counts on and off
// the four-lane group (and, at GOMAXPROCS 2 and 3, groups cut short by the
// region's ranges), plane sizes from one element up and batch sizes, and
// compares forward output, running statistics, dx, dγ and dβ bitwise.
func TestBatchNormMatchesPerChannelReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, procs := range []int{1, 2, 3} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range []int{1, 3, 4, 5, 8, 17} {
			for _, hw := range [][2]int{{1, 1}, {1, 7}, {4, 4}, {16, 16}} {
				for _, n := range []int{1, 5, 16} {
					name := fmt.Sprintf("procs%d c%d plane%d n%d", procs, c, hw[0]*hw[1], n)
					bn := NewBatchNorm2D("bn", c)
					for i := 0; i < c; i++ {
						bn.gamma.W.Data[i] = float32(rng.NormFloat64())
						bn.beta.W.Data[i] = float32(rng.NormFloat64())
					}
					x, dout := tensor.New(n, c, hw[0], hw[1]), tensor.New(n, c, hw[0], hw[1])
					x.Randn(rng, 2)
					dout.Randn(rng, 1)
					want := refBatchNormTrain(x, dout, bn.gamma.W.Data, bn.beta.W.Data, bn.Momentum, bn.Eps)
					compareBits(t, name+" out", bn.Forward(x, true).Data, want.out)
					compareBits(t, name+" running mean", bn.RunMean, want.runMean)
					compareBits(t, name+" running var", bn.RunVar, want.runVar)
					compareBits(t, name+" dx", bn.Backward(dout).Data, want.dx)
					compareBits(t, name+" dgamma", bn.gamma.G.Data, want.dgamma)
					compareBits(t, name+" dbeta", bn.beta.G.Data, want.dbeta)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
