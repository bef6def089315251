package graph

import (
	"testing"

	"spatl/internal/models"
)

func buildGraph(t *testing.T, arch string) (*models.SplitModel, *Graph) {
	t.Helper()
	spec := models.Spec{Arch: arch, Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	m := models.Build(spec, 1)
	return m, FromEncoder(m)
}

func TestResNet20GraphShape(t *testing.T) {
	m, g := buildGraph(t, "resnet20")
	if g.NumPrunable != len(m.PrunableConvs()) {
		t.Fatalf("prunable count %d, want %d", g.NumPrunable, len(m.PrunableConvs()))
	}
	if g.NumPrunable != 9 {
		t.Fatalf("resnet20 prunable = %d, want 9", g.NumPrunable)
	}
	// Every basic block contributes two Add edges.
	adds := 0
	for _, e := range g.Edges {
		if e.Op == OpAdd {
			adds++
		}
	}
	if adds != 18 {
		t.Fatalf("add edges = %d, want 18", adds)
	}
}

func TestVGGGraphIsChain(t *testing.T) {
	_, g := buildGraph(t, "vgg11")
	// A pure chain has NumNodes = len(Edges)+1 and no Add edges.
	for _, e := range g.Edges {
		if e.Op == OpAdd {
			t.Fatal("VGG graph must not contain residual adds")
		}
	}
	if g.NumNodes != len(g.Edges)+1 {
		t.Fatalf("vgg chain: %d nodes for %d edges", g.NumNodes, len(g.Edges))
	}
	if g.NumPrunable != 7 {
		t.Fatalf("vgg prunable = %d, want 7", g.NumPrunable)
	}
}

func TestEdgeEndpointsValid(t *testing.T) {
	for _, arch := range []string{"resnet20", "resnet18", "vgg11", "cnn2"} {
		_, g := buildGraph(t, arch)
		for _, e := range g.Edges {
			if e.Src < 0 || e.Src >= g.NumNodes || e.Dst < 0 || e.Dst >= g.NumNodes {
				t.Fatalf("%s: edge endpoints (%d,%d) outside [0,%d)", arch, e.Src, e.Dst, g.NumNodes)
			}
			if e.Src == e.Dst {
				t.Fatalf("%s: self-loop", arch)
			}
		}
	}
}

func TestConvEdgesCarryCost(t *testing.T) {
	_, g := buildGraph(t, "resnet20")
	for _, e := range g.Edges {
		if e.Op == OpConv {
			if e.FLOPs <= 0 || e.ParamCount <= 0 {
				t.Fatalf("conv edge missing cost: flops=%d params=%d", e.FLOPs, e.ParamCount)
			}
			if e.WeightL1 <= 0 {
				t.Fatal("conv edge missing weight statistics")
			}
		}
	}
}

func TestFeatureVectorShapeAndRange(t *testing.T) {
	_, g := buildGraph(t, "resnet20")
	for _, e := range g.Edges {
		f := make([]float32, FeatureDim)
		e.FeaturesInto(f)
		if len(f) != FeatureDim {
			t.Fatalf("feature dim %d, want %d", len(f), FeatureDim)
		}
		// Exactly one op-type slot set.
		ones := 0
		for i := 0; i < int(numOpTypes); i++ {
			if f[i] == 1 {
				ones++
			} else if f[i] != 0 {
				t.Fatal("one-hot slot must be 0 or 1")
			}
		}
		if ones != 1 {
			t.Fatalf("one-hot has %d active slots", ones)
		}
		for i, v := range f {
			if v < -1.01 || v > 1.5 {
				t.Fatalf("feature[%d] = %v outside sane range", i, v)
			}
		}
	}
}

func TestPrunableEdgesOrdered(t *testing.T) {
	_, g := buildGraph(t, "resnet20")
	next := 0
	for _, e := range g.Edges {
		if e.PrunableIdx < 0 {
			continue
		}
		if e.PrunableIdx != next {
			t.Fatalf("prunable edge %d has index %d", next, e.PrunableIdx)
		}
		if e.Op != OpConv {
			t.Fatal("prunable edge must be a conv")
		}
		next++
	}
	if next != g.NumPrunable {
		t.Fatalf("%d prunable edges, NumPrunable %d", next, g.NumPrunable)
	}
}

func TestGraphDiffersAcrossArchitectures(t *testing.T) {
	_, g20 := buildGraph(t, "resnet20")
	_, g32 := buildGraph(t, "resnet32")
	if g32.NumNodes <= g20.NumNodes || len(g32.Edges) <= len(g20.Edges) {
		t.Fatal("resnet32 graph must be larger than resnet20's")
	}
}

func TestOpTypeString(t *testing.T) {
	if OpConv.String() != "conv" || OpAdd.String() != "add" {
		t.Fatal("OpType names wrong")
	}
	if OpType(99).String() != "unknown" {
		t.Fatal("unknown OpType should say so")
	}
}

func TestEdgeFeaturesReflectWeights(t *testing.T) {
	// The graph is a *state*: edge features must change when the model's
	// weights change (the agent observes training progress).
	spec := models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	m := models.Build(spec, 1)
	g1 := FromEncoder(m)
	for _, p := range m.EncoderParams() {
		p.W.Scale(3)
	}
	g2 := FromEncoder(m)
	changed := false
	for i := range g1.Edges {
		if g1.Edges[i].Op == OpConv && g2.Edges[i].WeightL1 > g1.Edges[i].WeightL1*1.5 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("edge weight statistics did not respond to weight changes")
	}
}

func TestCNN2GraphShape(t *testing.T) {
	spec := models.Spec{Arch: "cnn2", Classes: 62, InC: 1, H: 28, W: 28, Width: 0.25}
	m := models.Build(spec, 1)
	g := FromEncoder(m)
	if g.NumPrunable != 1 {
		t.Fatalf("cnn2 prunable = %d, want 1", g.NumPrunable)
	}
	// The encoder's fc1 appears as a Linear edge with cost.
	hasLinear := false
	for _, e := range g.Edges {
		if e.Op == OpLinear {
			hasLinear = true
			if e.FLOPs <= 0 || e.ParamCount <= 0 {
				t.Fatal("linear edge missing cost")
			}
		}
	}
	if !hasLinear {
		t.Fatal("cnn2 graph missing linear edge")
	}
}
