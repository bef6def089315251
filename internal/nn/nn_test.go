package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"spatl/internal/tensor"
)

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over K classes: loss = ln K, grad = (1/K - onehot)/N.
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{1, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	want := float32(0.25 / 2)
	if math.Abs(float64(grad.Data[0]-want)) > 1e-6 {
		t.Fatalf("grad(0,0) = %v, want %v", grad.Data[0], want)
	}
	if math.Abs(float64(grad.Data[1]-(want-0.5))) > 1e-6 {
		t.Fatalf("grad at label = %v, want %v", grad.Data[1], want-0.5)
	}
}

func TestSoftmaxCrossEntropyGradSumsToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.New(5, 7)
	logits.Randn(rng, 3)
	_, grad := SoftmaxCrossEntropy(logits, []int{0, 1, 2, 3, 4})
	for i := 0; i < 5; i++ {
		var s float64
		for j := 0; j < 7; j++ {
			s += float64(grad.Data[i*7+j])
		}
		if math.Abs(s) > 1e-5 {
			t.Fatalf("row %d gradient sums to %v, want 0", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyNumericalStability(t *testing.T) {
	logits := tensor.Wrap(nil, []float32{1000, -1000, 0, 500}, 1, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss not finite: %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(float64(g)) {
			t.Fatal("grad contains NaN")
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.Wrap(nil, []float32{
		1, 5, 2, // pred 1
		9, 0, 0, // pred 0
		0, 0, 3, // pred 2
	}, 3, 3)
	if acc := Accuracy(logits, []int{1, 0, 0}); math.Abs(acc-2.0/3.0) > 1e-9 {
		t.Fatalf("Accuracy = %v, want 2/3", acc)
	}
}

func TestSGDPlainStep(t *testing.T) {
	p := newParam("w", 2)
	p.W.Data[0], p.W.Data[1] = 1, 2
	p.G.Data[0], p.G.Data[1] = 0.5, -0.5
	opt := NewSGD([]*Param{p}, 0.1, 0, 0)
	opt.Step()
	if math.Abs(float64(p.W.Data[0])-0.95) > 1e-6 || math.Abs(float64(p.W.Data[1])-2.05) > 1e-6 {
		t.Fatalf("SGD step gave %v", p.W.Data)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := newParam("w", 1)
	p.W.Data[0] = 0
	opt := NewSGD([]*Param{p}, 1, 0.9, 0)
	p.G.Data[0] = 1
	opt.Step() // v=1, w=-1
	p.G.Data[0] = 1
	opt.Step() // v=1.9, w=-2.9
	if math.Abs(float64(p.W.Data[0])+2.9) > 1e-6 {
		t.Fatalf("momentum step gave %v, want -2.9", p.W.Data[0])
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := newParam("w", 1)
	p.W.Data[0] = 10
	opt := NewSGD([]*Param{p}, 0.1, 0, 0.5)
	opt.Step() // g = 0 + 0.5*10 = 5; w = 10 - 0.5 = 9.5
	if math.Abs(float64(p.W.Data[0])-9.5) > 1e-5 {
		t.Fatalf("weight decay step gave %v, want 9.5", p.W.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := newParam("w", 1)
	p.W.Data[0] = 5
	opt := NewAdam([]*Param{p}, 0.2)
	for i := 0; i < 400; i++ {
		p.G.Data[0] = 2 * (p.W.Data[0] - 3) // d/dw (w-3)^2
		opt.Step()
	}
	if math.Abs(float64(p.W.Data[0])-3) > 0.05 {
		t.Fatalf("Adam converged to %v, want 3", p.W.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("w", 2)
	p.G.Data[0], p.G.Data[1] = 3, 4 // norm 5
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-6 {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	var sq float64
	for _, g := range p.G.Data {
		sq += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-4 {
		t.Fatalf("post-clip norm %v, want 1", math.Sqrt(sq))
	}
	// No-op below threshold.
	ClipGradNorm([]*Param{p}, 10)
	sq = 0
	for _, g := range p.G.Data {
		sq += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-4 {
		t.Fatal("clip must not rescale below threshold")
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear("fc", 4, 3, rng)
	params := l.Params()
	flat := FlattenParams(params)
	if len(flat) != ParamCount(params) {
		t.Fatalf("flat length %d, want %d", len(flat), ParamCount(params))
	}
	l2 := NewLinear("fc", 4, 3, Rng(99))
	UnflattenParams(l2.Params(), flat)
	f2 := FlattenParams(l2.Params())
	for i := range flat {
		if flat[i] != f2[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestUnflattenRejectsWrongLength(t *testing.T) {
	l := NewLinear("fc", 4, 3, Rng(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UnflattenParams(l.Params(), make([]float32, 3))
}

func TestSequentialParamNamesUniqueAndPrefixed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seq := NewSequential("enc",
		NewConv2D("conv", 1, 2, 3, 1, 1, false, rng),
		NewBatchNorm2D("bn", 2),
		NewLinear("fc", 2, 2, rng))
	seen := map[string]bool{}
	for _, p := range seq.Params() {
		if !strings.HasPrefix(p.Name, "enc.") {
			t.Fatalf("param name %q missing prefix", p.Name)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate param name %q", p.Name)
		}
		seen[p.Name] = true
	}
	if len(seen) != 5 {
		t.Fatalf("expected 5 params, got %d", len(seen))
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(8, 2, 3, 3)
	x.Randn(rng, 1)
	// A few training passes move the running stats.
	for i := 0; i < 20; i++ {
		bn.Forward(x, true)
	}
	y := bn.Forward(x, false)
	// With converged running stats, eval output should be ~normalized.
	var mean float64
	for i := 0; i < 8; i++ {
		mean += float64(y.Data[i*2*3*3+1*3+1])
	}
	_ = mean // smoke: mainly assert no panic and finite values
	for _, v := range y.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("eval forward produced NaN")
		}
	}
}

func TestBatchNormTrainNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bn := NewBatchNorm2D("bn", 1)
	x := tensor.New(16, 1, 4, 4)
	x.Randn(rng, 5)
	for i := range x.Data {
		x.Data[i] += 10 // large offset must be removed
	}
	y := bn.Forward(x, true)
	var sum, sq float64
	for _, v := range y.Data {
		sum += float64(v)
	}
	mean := sum / float64(y.Len())
	for _, v := range y.Data {
		sq += (float64(v) - mean) * (float64(v) - mean)
	}
	std := math.Sqrt(sq / float64(y.Len()))
	if math.Abs(mean) > 1e-3 || math.Abs(std-1) > 1e-2 {
		t.Fatalf("train-mode output mean %v std %v, want 0/1", mean, std)
	}
}

func TestMaxPoolForwardValues(t *testing.T) {
	x := tensor.Wrap(nil, []float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 1,
	}, 1, 1, 4, 4)
	p := NewMaxPool2D("pool", 2)
	y := p.Forward(x, true)
	want := []float32{4, 8, 9, 4}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

func TestGlobalAvgPoolForwardValues(t *testing.T) {
	x := tensor.Wrap(nil, []float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	g := NewGlobalAvgPool("gap")
	y := g.Forward(x, true)
	if y.Data[0] != 2.5 || y.Data[1] != 25 {
		t.Fatalf("gap gave %v", y.Data)
	}
}

func TestConvFLOPsFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewConv2D("conv", 3, 16, 3, 1, 1, false, rng)
	x := tensor.New(1, 3, 8, 8)
	c.Forward(x, false)
	want := int64(2 * 3 * 3 * 3 * 16 * 8 * 8)
	if c.FLOPs() != want {
		t.Fatalf("FLOPs = %d, want %d", c.FLOPs(), want)
	}
}

func TestTrainingReducesLossOnToyProblem(t *testing.T) {
	// A small MLP must fit a linearly separable 2-class problem.
	rng := rand.New(rand.NewSource(10))
	net := NewSequential("net",
		NewLinear("fc1", 2, 16, rng),
		NewReLU("relu"),
		NewLinear("fc2", 16, 2, rng))
	n := 64
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x.Set(float32(a), i, 0)
		x.Set(float32(b), i, 1)
		if a+b > 0 {
			labels[i] = 1
		}
	}
	opt := NewSGD(net.Params(), 0.5, 0.9, 0)
	var first, last float64
	for epoch := 0; epoch < 60; epoch++ {
		ZeroGrad(net.Params())
		out := net.Forward(x, true)
		loss, grad := SoftmaxCrossEntropy(out, labels)
		net.Backward(grad)
		opt.Step()
		if epoch == 0 {
			first = loss
		}
		last = loss
	}
	if last > first*0.3 {
		t.Fatalf("loss did not drop: first %v last %v", first, last)
	}
	out := net.Forward(x, false)
	if acc := Accuracy(out, labels); acc < 0.95 {
		t.Fatalf("final accuracy %v < 0.95", acc)
	}
}

func TestConv2DRecachesGeometryOnNewInputSize(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c := NewConv2D("conv", 1, 2, 3, 1, 1, false, rng)
	a := c.Forward(tensor.New(1, 1, 8, 8), false)
	if a.Dim(2) != 8 {
		t.Fatalf("first geometry wrong: %v", a.Shape())
	}
	b := c.Forward(tensor.New(1, 1, 4, 4), false)
	if b.Dim(2) != 4 {
		t.Fatalf("conv did not re-cache geometry: %v", b.Shape())
	}
}

func TestConv2DRejectsWrongChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := NewConv2D("conv", 3, 2, 3, 1, 1, false, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong channel count")
		}
	}()
	c.Forward(tensor.New(1, 2, 8, 8), false)
}

func TestSequentialFLOPsIsSumOfLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	conv := NewConv2D("conv", 1, 2, 3, 1, 1, false, rng)
	fc := NewLinear("fc", 2, 3, rng)
	seq := NewSequential("net", conv, NewGlobalAvgPool("gap"), fc)
	seq.Forward(tensor.New(1, 1, 6, 6), false)
	want := conv.FLOPs() + fc.FLOPs()
	got := seq.FLOPs()
	if got < want || got > want+1000 {
		t.Fatalf("Sequential FLOPs %d vs component sum %d", got, want)
	}
}

func TestWalkVisitsAllLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	block := NewBasicBlock("block", 2, 4, 2, rng)
	seq := NewSequential("net", block, NewReLU("relu"))
	count := 0
	Walk(seq, func(l Layer) { count++ })
	// seq + block + 7 block sublayers (projection shortcut) + relu = 10.
	if count != 10 {
		t.Fatalf("Walk visited %d layers, want 10", count)
	}
}

func TestSoftmaxCrossEntropyRejectsBadLabels(t *testing.T) {
	logits := tensor.New(1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range label")
		}
	}()
	SoftmaxCrossEntropy(logits, []int{7})
}

func TestAdamLRAccessors(t *testing.T) {
	a := NewAdam(NewLinear("fc", 2, 2, Rng(1)).Params(), 0.01)
	if a.LR() != 0.01 {
		t.Fatal("LR getter")
	}
}
