// Package eval holds the transport- and algorithm-independent model
// evaluation helpers shared by the simulation framework (internal/fl)
// and the pruning environment (internal/prune). It sits below both so
// neither drags the other in.
package eval

import (
	"spatl/internal/data"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// Accuracy computes top-1 accuracy of m on ds in evaluation mode,
// batching for throughput.
func Accuracy(m *models.SplitModel, ds *data.Dataset, batchSize int) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	batches(m, ds, batchSize, func(out *tensor.Tensor, y []int) {
		for i := 0; i < len(y); i++ {
			row := out.Data[i*out.Dim(1) : (i+1)*out.Dim(1)]
			best, bi := row[0], 0
			for j, v := range row[1:] {
				if v > best {
					best, bi = v, j+1
				}
			}
			if bi == y[i] {
				correct++
			}
		}
	})
	return float64(correct) / float64(ds.Len())
}

// Loss computes mean cross-entropy of m on ds in evaluation mode.
func Loss(m *models.SplitModel, ds *data.Dataset, batchSize int) float64 {
	if ds.Len() == 0 {
		return 0
	}
	var total float64
	batches(m, ds, batchSize, func(out *tensor.Tensor, y []int) {
		loss, _ := nn.SoftmaxCrossEntropy(out, y)
		total += loss * float64(len(y))
	})
	return total / float64(ds.Len())
}

// batches runs m in evaluation mode over ds in order, batchSize examples
// at a time (64 when not positive), gathered into one pooled batch array,
// hands fn each batch's logits and labels, and at the end of the pass
// releases m's layer buffers and the batch array.
func batches(m *models.SplitModel, ds *data.Dataset, batchSize int, fn func(out *tensor.Tensor, y []int)) {
	if batchSize <= 0 {
		batchSize = 64
	}
	idx := make([]int, 0, min(batchSize, ds.Len()))
	var x *tensor.Tensor
	y := make([]int, 0, cap(idx))
	for lo := 0; lo < ds.Len(); lo += batchSize {
		idx = idx[:0]
		for i := lo; i < min(lo+batchSize, ds.Len()); i++ {
			idx = append(idx, i)
		}
		x, y = ds.BatchInto(x, y, idx)
		fn(m.Forward(x, false), y)
	}
	m.Release()
	tensor.Recycle(x)
}
