package models

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"spatl/internal/nn"
	"spatl/internal/tensor"
)

func specFor(arch string) Spec {
	switch arch {
	case "cnn2":
		return Spec{Arch: arch, Classes: 62, InC: 1, H: 28, W: 28, Width: 0.125}
	case "mlp":
		return Spec{Arch: arch, Classes: 10, InC: 3, H: 8, W: 8, Width: 0.5}
	default:
		return Spec{Arch: arch, Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	}
}

var allArchs = []string{"resnet20", "resnet32", "resnet56", "resnet18", "vgg11", "cnn2", "mlp"}

func TestBuildForwardShapes(t *testing.T) {
	for _, arch := range allArchs {
		t.Run(arch, func(t *testing.T) {
			spec := specFor(arch)
			m := Build(spec, 1)
			x := tensor.New(2, spec.InC, spec.H, spec.W)
			x.Randn(nn.Rng(2), 1)
			out := m.Forward(x, false)
			if out.Rank() != 2 || out.Dim(0) != 2 || out.Dim(1) != spec.Classes {
				t.Fatalf("%s output shape %v, want (2,%d)", arch, out.Shape(), spec.Classes)
			}
			for _, v := range out.Data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s produced non-finite logits", arch)
				}
			}
		})
	}
}

func TestBuildDeterministicFromSeed(t *testing.T) {
	a := Build(specFor("resnet20"), 42)
	b := Build(specFor("resnet20"), 42)
	sa, sb := a.State(ScopeAll), b.State(ScopeAll)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed must give identical weights")
		}
	}
	c := Build(specFor("resnet20"), 43)
	sc := c.State(ScopeAll)
	same := true
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must give different weights")
	}
}

func TestResNetDepths(t *testing.T) {
	count := func(arch string) int {
		m := Build(specFor(arch), 1)
		blocks := 0
		nn.Walk(m.Encoder, func(l nn.Layer) {
			if _, ok := l.(*nn.BasicBlock); ok {
				blocks++
			}
		})
		return blocks
	}
	if got := count("resnet20"); got != 9 {
		t.Fatalf("resnet20 blocks = %d, want 9", got)
	}
	if got := count("resnet32"); got != 15 {
		t.Fatalf("resnet32 blocks = %d, want 15", got)
	}
	if got := count("resnet56"); got != 27 {
		t.Fatalf("resnet56 blocks = %d, want 27", got)
	}
	if got := count("resnet18"); got != 8 {
		t.Fatalf("resnet18 blocks = %d, want 8", got)
	}
}

func TestStateRoundTrip(t *testing.T) {
	for _, arch := range []string{"resnet20", "vgg11", "cnn2", "mlp"} {
		t.Run(arch, func(t *testing.T) {
			spec := specFor(arch)
			m := Build(spec, 7)
			// Run a training forward so BN stats move off their defaults.
			x := tensor.New(4, spec.InC, spec.H, spec.W)
			x.Randn(nn.Rng(8), 1)
			m.Forward(x, true)

			st := m.State(ScopeAll)
			if len(st) != m.StateLen(ScopeAll) {
				t.Fatalf("state len %d, want %d", len(st), m.StateLen(ScopeAll))
			}
			m2 := Build(spec, 99)
			m2.SetState(ScopeAll, st)
			st2 := m2.State(ScopeAll)
			for i := range st {
				if st[i] != st2[i] {
					t.Fatalf("state round trip mismatch at %d", i)
				}
			}
			// Outputs must now agree exactly in eval mode.
			o1 := m.Forward(x, false)
			o2 := m2.Forward(x, false)
			for i := range o1.Data {
				if o1.Data[i] != o2.Data[i] {
					t.Fatal("cloned state must give identical eval outputs")
				}
			}
		})
	}
}

func TestEncoderScopeSmallerThanAll(t *testing.T) {
	m := Build(specFor("resnet20"), 1)
	if m.StateLen(ScopeEncoder) >= m.StateLen(ScopeAll) {
		t.Fatal("encoder state must be strictly smaller than full state")
	}
}

func TestSetStateRejectsWrongLength(t *testing.T) {
	m := Build(specFor("mlp"), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetState(ScopeAll, make([]float32, 3))
}

func TestStateSpecCoversVectorExactly(t *testing.T) {
	m := Build(specFor("resnet20"), 1)
	spec := m.StateSpec(ScopeEncoder)
	if spec.Total != m.StateLen(ScopeEncoder) {
		t.Fatalf("spec total %d, want %d", spec.Total, m.StateLen(ScopeEncoder))
	}
	// Segments must tile [0, Total) without gaps or overlaps.
	off := 0
	for _, seg := range spec.Segments {
		if seg.Off != off {
			t.Fatalf("segment %q starts at %d, want %d", seg.Name, seg.Off, off)
		}
		off += seg.Len
	}
	if off != spec.Total {
		t.Fatalf("segments cover %d, want %d", off, spec.Total)
	}
}

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	spec := specFor("resnet20")
	m := Build(spec, 3)
	x := tensor.New(2, spec.InC, spec.H, spec.W)
	x.Randn(nn.Rng(4), 1)
	m.Forward(x, true) // move BN stats
	c := m.Clone()
	o1, o2 := m.Forward(x, false), c.Forward(x, false)
	for i := range o1.Data {
		if o1.Data[i] != o2.Data[i] {
			t.Fatal("clone must match original output")
		}
	}
	// Mutating the clone must not affect the original.
	c.Params()[0].W.Data[0] += 1
	o3 := m.Forward(x, false)
	for i := range o1.Data {
		if o1.Data[i] != o3.Data[i] {
			t.Fatal("clone must not alias original tensors")
		}
	}
}

func TestPrunableConvs(t *testing.T) {
	if got := len(Build(specFor("resnet20"), 1).PrunableConvs()); got != 9 {
		t.Fatalf("resnet20 prunable convs = %d, want 9 (one per block)", got)
	}
	if got := len(Build(specFor("vgg11"), 1).PrunableConvs()); got != 7 {
		t.Fatalf("vgg11 prunable convs = %d, want 7 (all but last)", got)
	}
	if got := len(Build(specFor("cnn2"), 1).PrunableConvs()); got != 1 {
		t.Fatalf("cnn2 prunable convs = %d, want 1", got)
	}
}

func TestDescribeReportsFLOPs(t *testing.T) {
	m := Build(specFor("resnet20"), 1)
	params, flops := m.Describe()
	if params <= 0 || flops <= 0 {
		t.Fatalf("Describe gave params=%d flops=%d", params, flops)
	}
	// ResNet-32 must have more of both than ResNet-20 at equal width.
	m32 := Build(specFor("resnet32"), 1)
	p32, f32 := m32.Describe()
	if p32 <= params || f32 <= flops {
		t.Fatalf("resnet32 (%d,%d) should exceed resnet20 (%d,%d)", p32, f32, params, flops)
	}
}

func TestWidthMultiplierScalesParams(t *testing.T) {
	small := Build(Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}, 1)
	big := Build(Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.5}, 1)
	ps, _ := small.Describe()
	pb, _ := big.Describe()
	if pb <= 2*ps {
		t.Fatalf("doubling width should much more than double params: %d vs %d", ps, pb)
	}
}

func TestUnknownArchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(Spec{Arch: "alexnet", Classes: 10, InC: 3, H: 16, W: 16}, 1)
}

func TestTrainingStepChangesOnlyTargetScope(t *testing.T) {
	// Freezing the encoder and training the predictor (SPATL's cold-start
	// path, eq. 4) must leave encoder weights untouched.
	spec := specFor("mlp")
	m := Build(spec, 5)
	x := tensor.New(8, spec.InC, spec.H, spec.W)
	x.Randn(nn.Rng(6), 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % spec.Classes
	}
	encBefore := m.State(ScopeEncoder)
	opt := nn.NewSGD(m.PredictorParams(), 0.1, 0.9, 0)
	for it := 0; it < 3; it++ {
		nn.ZeroGrad(m.Params())
		out := m.Forward(x, true)
		_, grad := nn.SoftmaxCrossEntropy(out, labels)
		m.Backward(grad)
		opt.Step()
	}
	encAfter := m.State(ScopeEncoder)
	for i := range encBefore {
		if encBefore[i] != encAfter[i] {
			t.Fatal("predictor-only training must not modify encoder")
		}
	}
}

func TestVGGDropoutInHead(t *testing.T) {
	spec := specFor("vgg11")
	spec.Dropout = 0.5
	m := Build(spec, 1)
	found := false
	nn.Walk(m.Predictor, func(l nn.Layer) {
		if _, ok := l.(*nn.Dropout); ok {
			found = true
		}
	})
	if !found {
		t.Fatal("Spec.Dropout must insert a dropout layer in the VGG head")
	}
	// Without the flag there is none.
	m2 := Build(specFor("vgg11"), 1)
	nn.Walk(m2.Predictor, func(l nn.Layer) {
		if _, ok := l.(*nn.Dropout); ok {
			t.Fatal("dropout must be off by default")
		}
	})
	// Eval-mode forward must be deterministic despite dropout.
	x := tensor.New(2, spec.InC, spec.H, spec.W)
	x.Randn(nn.Rng(2), 1)
	a, b := m.Forward(x, false), m.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("eval forward must be deterministic with dropout")
		}
	}
}

// uncachedStateSpec walks the layer tree the way StateSpec did before
// the layout was cached — straight from Sequential.Params and nn.Walk,
// nothing remembered — and is what the cached layout must agree with.
func uncachedStateSpec(m *SplitModel, scope Scope) StateSpec {
	roots := []*nn.Sequential{m.Encoder}
	if scope == ScopeAll {
		roots = append(roots, m.Predictor)
	}
	var spec StateSpec
	for _, root := range roots {
		for _, p := range root.Params() {
			spec.Segments = append(spec.Segments, Segment{Name: p.Name, Off: spec.Total, Len: p.W.Len()})
			spec.Total += p.W.Len()
		}
	}
	bn := 0
	for _, root := range roots {
		nn.Walk(root, func(l nn.Layer) {
			if b, ok := l.(*nn.BatchNorm2D); ok {
				for _, stat := range []string{"rmean", "rvar"} {
					spec.Segments = append(spec.Segments, Segment{Name: fmt.Sprintf("bn%d.%s", bn, stat), Off: spec.Total, Len: b.C})
					spec.Total += b.C
				}
				bn++
			}
		})
	}
	return spec
}

// TestStateLayoutCacheMatchesUncachedWalk: for every architecture and
// both scopes the cached layout reports the StateSpec — names, offsets,
// lengths, total — of a fresh walk, asked twice (cold, then cached); a
// model whose Encoder is swapped afterwards is re-walked without being
// told, because the cache is keyed on the Encoder/Predictor identities.
func TestStateLayoutCacheMatchesUncachedWalk(t *testing.T) {
	for _, arch := range allArchs {
		t.Run(arch, func(t *testing.T) {
			m := Build(specFor(arch), 1)
			for _, scope := range []Scope{ScopeAll, ScopeEncoder} {
				want := uncachedStateSpec(m, scope)
				for pass := 0; pass < 2; pass++ {
					if got := m.StateSpec(scope); !reflect.DeepEqual(got, want) {
						t.Fatalf("scope %d pass %d: cached StateSpec differs from the uncached walk", scope, pass)
					}
					if got := m.StateLen(scope); got != want.Total {
						t.Fatalf("scope %d pass %d: StateLen %d, uncached total %d", scope, pass, got, want.Total)
					}
				}
			}
			wider := specFor(arch)
			wider.Width *= 2
			other := Build(wider, 2)
			m.Encoder, m.Predictor = other.Encoder, other.Predictor
			if got, want := m.StateSpec(ScopeAll), uncachedStateSpec(m, ScopeAll); !reflect.DeepEqual(got, want) {
				t.Fatal("layout cache survived an Encoder/Predictor swap")
			}
		})
	}
}

// TestParamsListsAreAppendSafe: Params, EncoderParams and PredictorParams
// hand out views of one cached array; appending to one must not write
// into its neighbour.
func TestParamsListsAreAppendSafe(t *testing.T) {
	m := Build(specFor("resnet20"), 1)
	enc, pred := m.EncoderParams(), m.PredictorParams()
	firstPred := pred[0]
	_ = append(enc, &nn.Param{Name: "intruder"})
	if m.PredictorParams()[0] != firstPred || m.Params()[len(enc)] != firstPred {
		t.Fatal("append to EncoderParams overwrote the predictor's first parameter")
	}
	all := m.Params()
	if len(all) != len(enc)+len(pred) || cap(all) != len(all) || cap(enc) != len(enc) || cap(pred) != len(pred) {
		t.Fatalf("lists not cap-clipped: all %d/%d enc %d/%d pred %d/%d",
			len(all), cap(all), len(enc), cap(enc), len(pred), cap(pred))
	}
}

// TestStateLenAndStateIntoDoNotAllocate guards the per-upload and
// per-round calls the layout cache exists for: StateLen, and StateInto
// into a sized buffer, allocate nothing — on a small and a conv model.
func TestStateLenAndStateIntoDoNotAllocate(t *testing.T) {
	for _, arch := range []string{"mlp", "resnet20"} {
		t.Run(arch, func(t *testing.T) {
			m := Build(specFor(arch), 1)
			buf := make([]float32, m.StateLen(ScopeAll))
			sink := 0
			if n := testing.AllocsPerRun(50, func() {
				sink += m.StateLen(ScopeAll) + m.StateLen(ScopeEncoder)
				buf = m.StateInto(ScopeAll, buf)
			}); n != 0 {
				t.Fatalf("StateLen + StateInto allocated %v times per call", n)
			}
			if sink == 0 || len(buf) != m.StateLen(ScopeAll) {
				t.Fatal("calls did not run")
			}
		})
	}
}
