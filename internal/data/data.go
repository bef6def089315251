// Package data provides the synthetic datasets and non-IID partitioning
// schemes used throughout the reproduction. The environment is offline,
// so CIFAR-10 and FEMNIST are substituted by procedural generators
// ("SynthCIFAR", "SynthFEMNIST") that preserve the properties the
// federated-learning experiments depend on: a learnable but non-trivial
// multi-class task, label skew across clients via Dirichlet allocation
// (the Non-IID benchmark scheme the paper uses, α = 0.5), and per-writer
// feature skew for FEMNIST (the LEAF scheme). See DESIGN.md §1.
package data

import (
	"fmt"
	"math/rand"
	"sort"

	"spatl/internal/tensor"
)

// Dataset is a labelled image set in NCHW layout.
type Dataset struct {
	X *tensor.Tensor // (N, C, H, W)
	Y []int
	// Classes is the number of label categories.
	Classes int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Y) }

// Sample copies example i into a fresh (1,C,H,W) tensor.
func (d *Dataset) Sample(i int) (*tensor.Tensor, int) {
	c, h, w := d.X.Dim(1), d.X.Dim(2), d.X.Dim(3)
	stride := c * h * w
	x := tensor.New(1, c, h, w)
	copy(x.Data, d.X.Data[i*stride:(i+1)*stride])
	return x, d.Y[i]
}

// Batch gathers the examples at idx into a fresh batch tensor and label
// slice.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	return d.BatchInto(tensor.New(len(idx), d.X.Dim(1), d.X.Dim(2), d.X.Dim(3)), make([]int, 0, len(idx)), idx)
}

// BatchInto gathers the examples at idx into x, shaped for them with
// tensor.Reuse (a nil x draws its array from the scratch pool), and their
// labels into y's array, and returns both. A training or evaluation pass
// gathers every batch into one array this way, hands it back with
// tensor.Recycle when the pass ends, and allocates nothing per batch.
func (d *Dataset) BatchInto(x *tensor.Tensor, y []int, idx []int) (*tensor.Tensor, []int) {
	c, h, w := d.X.Dim(1), d.X.Dim(2), d.X.Dim(3)
	stride := c * h * w
	x = tensor.Reuse(x, len(idx), c, h, w)
	y = y[:0]
	for bi, i := range idx {
		copy(x.Data[bi*stride:(bi+1)*stride], d.X.Data[i*stride:(i+1)*stride])
		y = append(y, d.Y[i])
	}
	return x, y
}

// Subset returns a dataset view containing copies of the examples at idx.
func (d *Dataset) Subset(idx []int) *Dataset {
	x, y := d.Batch(idx)
	return &Dataset{X: x, Y: y, Classes: d.Classes}
}

// Split divides the dataset into a training part with the first
// round(frac·N) examples and a validation part with the rest (callers
// shuffle beforehand if needed; the generators emit shuffled data).
func (d *Dataset) Split(frac float64) (train, val *Dataset) {
	n := d.Len()
	cut := int(float64(n) * frac)
	if cut < 1 {
		cut = 1
	}
	if cut >= n {
		cut = n - 1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx[:cut]), d.Subset(idx[cut:])
}

// Batches returns successive index slices of the given size covering a
// shuffled permutation of the dataset.
func (d *Dataset) Batches(rng *rand.Rand, batchSize int) [][]int {
	perm := rng.Perm(d.Len())
	var out [][]int
	for lo := 0; lo < len(perm); lo += batchSize {
		hi := lo + batchSize
		if hi > len(perm) {
			hi = len(perm)
		}
		out = append(out, perm[lo:hi])
	}
	return out
}

// DirichletPartition splits example indices across numClients clients
// with label proportions drawn from Dir(alpha) per class — the Non-IID
// benchmark scheme ("noniid-labeldir"). Smaller alpha means more skew.
// The sampler retries until every client holds at least minSize examples,
// exactly as the benchmark implementation does.
func DirichletPartition(labels []int, classes, numClients int, alpha float64, minSize int, rng *rand.Rand) [][]int {
	if numClients <= 0 {
		panic("data: numClients must be positive")
	}
	if minSize < 1 {
		minSize = 1
	}
	byClass := make([][]int, classes)
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	for attempt := 0; ; attempt++ {
		parts := make([][]int, numClients)
		for _, idxs := range byClass {
			if len(idxs) == 0 {
				continue
			}
			shuffled := append([]int(nil), idxs...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			props := dirichlet(rng, numClients, alpha)
			// Convert proportions to cumulative cut points.
			lo := 0
			var cum float64
			for c := 0; c < numClients; c++ {
				cum += props[c]
				hi := int(cum * float64(len(shuffled)))
				if c == numClients-1 {
					hi = len(shuffled)
				}
				if hi > lo {
					parts[c] = append(parts[c], shuffled[lo:hi]...)
				}
				lo = hi
			}
		}
		ok := true
		for _, p := range parts {
			if len(p) < minSize {
				ok = false
				break
			}
		}
		if ok || attempt >= 200 {
			if !ok {
				panic(fmt.Sprintf("data: DirichletPartition could not satisfy minSize=%d after 200 attempts", minSize))
			}
			// Each client's list was assembled class by class; shuffle it
			// so downstream train/val splits see the client's full label
			// mix on both sides.
			for _, p := range parts {
				rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			}
			return parts
		}
	}
}

// ShardPartition splits example indices across numClients clients by
// the pathological label-shard scheme of the original FedAvg paper
// ("noniid-#label"): examples are sorted by label, cut into
// numClients·shardsPerClient equal shards, and each client is dealt
// shardsPerClient shards at random. Small shardsPerClient means extreme
// skew — with 2 shards each client sees at most 2 labels.
func ShardPartition(labels []int, numClients, shardsPerClient int, rng *rand.Rand) [][]int {
	if numClients <= 0 {
		panic("data: numClients must be positive")
	}
	if shardsPerClient < 1 {
		shardsPerClient = 1
	}
	// Stable label-major order: sort indices by (label, index).
	order := make([]int, len(labels))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if labels[order[a]] != labels[order[b]] {
			return labels[order[a]] < labels[order[b]]
		}
		return order[a] < order[b]
	})
	nShards := numClients * shardsPerClient
	if nShards > len(order) {
		panic(fmt.Sprintf("data: ShardPartition needs at least %d examples for %d shards, got %d",
			nShards, nShards, len(order)))
	}
	deal := rng.Perm(nShards)
	parts := make([][]int, numClients)
	for c := 0; c < numClients; c++ {
		for k := 0; k < shardsPerClient; k++ {
			sh := deal[c*shardsPerClient+k]
			lo := sh * len(order) / nShards
			hi := (sh + 1) * len(order) / nShards
			parts[c] = append(parts[c], order[lo:hi]...)
		}
		// Shuffle within the client so train/val splits see its full
		// label mix on both sides, as DirichletPartition does.
		p := parts[c]
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	return parts
}

// dirichlet samples a length-n probability vector from Dir(alpha,...,alpha)
// via normalized Gamma(alpha,1) draws (Marsaglia–Tsang).
func dirichlet(rng *rand.Rand, n int, alpha float64) []float64 {
	out := make([]float64, n)
	var sum float64
	for i := range out {
		g := gammaSample(rng, alpha)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw; fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(n)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// gammaSample draws Gamma(shape, 1) using Marsaglia & Tsang's method,
// with the standard alpha<1 boost.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && log(u) < 0.5*x*x+d*(1-v+log(v)) {
			return d * v
		}
	}
}
