package nn

import (
	"fmt"
	"math"

	"spatl/internal/tensor"
)

// SoftmaxCrossEntropy computes mean softmax cross-entropy loss over a
// batch of logits (N,K) against integer labels, returning the loss and
// the gradient w.r.t. the logits (already divided by N).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	return softmaxCrossEntropy(tensor.New(logits.Dim(0), logits.Dim(1)), logits, labels)
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the gradient
// into grad, taken with tensor.Reuse (every element is overwritten): a
// training loop holds one gradient header for all its steps and hands
// the array back with tensor.Recycle when it is done.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	return softmaxCrossEntropy(tensor.Reuse(grad, logits.Dim(0), logits.Dim(1)), logits, labels)
}

func softmaxCrossEntropy(grad, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	var loss float64
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		// Stable log-softmax.
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum)
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		loss += -(float64(row[y]-maxv) - logSum)
		g := grad.Data[i*k : (i+1)*k]
		for j, v := range row {
			p := math.Exp(float64(v-maxv)) / sum
			g[j] = float32(p / float64(n))
		}
		g[y] -= float32(1.0 / float64(n))
	}
	return loss / float64(n), grad
}

// Accuracy returns the fraction of rows whose arg-max logit matches the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Dim(0), logits.Dim(1)
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		if bi == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
