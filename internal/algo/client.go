package algo

import (
	"math/rand"

	"spatl/internal/data"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/tensor"
)

// Client is one edge device: private train/validation splits and a
// persistent local model (SPATL keeps the predictor here across rounds;
// baselines overwrite the whole model each round).
type Client struct {
	ID    int
	Train *data.Dataset
	Val   *data.Dataset
	Model *models.SplitModel

	// Control is the SCAFFOLD-style client control variate c_i over the
	// algorithm's trainable-parameter scope; nil until the algorithm's
	// trainer initializes it.
	Control []float32
}

// LocalOpts configures one client's local update phase.
type LocalOpts struct {
	// Params is the parameter set to train (whole model for baselines,
	// encoder+predictor or predictor-only for SPATL variants).
	Params      []*nn.Param
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	GradClip    float64
	// Hook, when non-nil, runs after each backward pass and before the
	// optimizer step; FedProx adds its proximal term here and
	// SCAFFOLD/SPATL apply control-variate gradient correction.
	Hook func(params []*nn.Param)
	// Velocity, when set, warm-starts the momentum buffers and receives
	// their final values (zeros without momentum): FedNova ships them.
	Velocity []float32
	// FreezeEncoder runs the encoder in evaluation mode and trains only
	// the predictor — SPATL's cold-start transfer path (eq. 4). The
	// encoder's weights and BatchNorm statistics are untouched.
	FreezeEncoder bool
}

// LocalSGD runs minibatch SGD on the client's model and returns the
// number of optimizer steps taken. Everything a pass needs is drawn from
// the scratch pool for this call only — the model's layer buffers, one
// batch array and the momentum buffers — and handed back on return, so a
// client between rounds holds no activations.
func LocalSGD(c *Client, opts LocalOpts, rng *rand.Rand) (steps int) {
	opt := nn.NewSGD(opts.Params, opts.LR, opts.Momentum, opts.WeightDecay)
	if opts.Velocity != nil {
		opt.SetVelocity(opts.Velocity)
	}
	allParams := c.Model.Params()
	var x, grad *tensor.Tensor
	var y []int
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		for _, idx := range c.Train.Batches(rng, opts.BatchSize) {
			x, y = c.Train.BatchInto(x, y, idx)
			nn.ZeroGrad(allParams)
			var out *tensor.Tensor
			if opts.FreezeEncoder {
				h := c.Model.Encoder.Forward(x, false)
				out = c.Model.Predictor.Forward(h, true)
			} else {
				out = c.Model.Forward(x, true)
			}
			_, grad = nn.SoftmaxCrossEntropyInto(grad, out, y)
			if opts.FreezeEncoder {
				c.Model.Predictor.Backward(grad)
			} else {
				c.Model.Backward(grad)
			}
			if opts.Hook != nil {
				opts.Hook(opts.Params)
			}
			if opts.GradClip > 0 {
				nn.ClipGradNorm(opts.Params, opts.GradClip)
			}
			opt.Step()
			steps++
		}
	}
	if opts.Velocity != nil {
		clear(opts.Velocity[copy(opts.Velocity, opt.Velocity()):])
	}
	opt.Release()
	c.Model.Release()
	tensor.Recycle(x)
	tensor.Recycle(grad)
	return steps
}
