package fl

import (
	"spatl/internal/data"
	"spatl/internal/eval"
	"spatl/internal/models"
	"spatl/internal/tensor"
)

// EvalAccuracy computes top-1 accuracy of m on ds in evaluation mode,
// batching for throughput.
func EvalAccuracy(m *models.SplitModel, ds *data.Dataset, batchSize int) float64 {
	return eval.Accuracy(m, ds, batchSize)
}

// ParallelClients runs fn for each selected client index concurrently on
// a bounded worker pool. fn receives positions into selected, so callers
// can fill result slices without locking.
func ParallelClients(selected []int, fn func(pos int)) {
	tensor.Parallel(len(selected), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
