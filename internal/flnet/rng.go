package flnet

import (
	"math/rand"
	"slices"
)

// newRng builds the server's sampling source.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// samplePerm draws k distinct indices from [0,n), sorted ascending.
func samplePerm(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)[:k]
	slices.Sort(perm)
	return perm
}
