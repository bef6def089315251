package fl

import (
	"runtime"
	"sort"
	"sync/atomic"

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

// ParallelClients runs fn(pos) once for every position of sizes, on at
// most GOMAXPROCS goroutines that each claim one position at a time from
// a shared cursor, largest size first. sizes[pos] is the client's training
// set size — its step count — so the longest client starts first and the
// cores finish close together whatever the sample; a contiguous split
// leaves one core idle for a quarter of the round when the large clients
// sit side by side. While every core is inside a client, the regions its
// training step nests run inline (tensor.Parallel). Which goroutine runs a
// position is invisible to callers: they fill result slices by position
// and read them after the call.
func ParallelClients(sizes []int, fn func(pos int)) {
	order := longestFirst(sizes)
	var next atomic.Int64
	tensor.Parallel(min(len(order), runtime.GOMAXPROCS(0)), func(_, _ int) {
		for i := int(next.Add(1)) - 1; i < len(order); i = int(next.Add(1)) - 1 {
			fn(order[i])
		}
	})
}

// longestFirst returns the positions of sizes in descending size order,
// equal sizes in ascending position order.
func longestFirst(sizes []int) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	return order
}
