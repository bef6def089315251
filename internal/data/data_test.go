package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSynthCIFARShapesAndLabels(t *testing.T) {
	ds := SynthCIFAR(SynthCIFARConfig{}, 100, 1, 2)
	if ds.Len() != 100 {
		t.Fatalf("Len = %d", ds.Len())
	}
	sh := ds.X.Shape()
	if sh[0] != 100 || sh[1] != 3 || sh[2] != 16 || sh[3] != 16 {
		t.Fatalf("shape %v", sh)
	}
	for _, y := range ds.Y {
		if y < 0 || y >= 10 {
			t.Fatalf("label %d out of range", y)
		}
	}
}

func TestSynthCIFARDeterministic(t *testing.T) {
	a := SynthCIFAR(SynthCIFARConfig{}, 20, 1, 2)
	b := SynthCIFAR(SynthCIFARConfig{}, 20, 1, 2)
	if !a.X.Equal(b.X) {
		t.Fatal("same seeds must give identical data")
	}
	c := SynthCIFAR(SynthCIFARConfig{}, 20, 1, 3)
	if a.X.Equal(c.X) {
		t.Fatal("different instance seeds must differ")
	}
}

func TestSynthCIFARClassesAreSeparable(t *testing.T) {
	// Same-class pairs must be closer on average than cross-class pairs;
	// otherwise the task is pure noise and no FL experiment can learn.
	ds := SynthCIFAR(SynthCIFARConfig{Noise: 0.2}, 400, 5, 6)
	stride := ds.X.Len() / ds.Len()
	dist := func(i, j int) float64 {
		var s float64
		for k := 0; k < stride; k++ {
			d := float64(ds.X.Data[i*stride+k] - ds.X.Data[j*stride+k])
			s += d * d
		}
		return s
	}
	var same, cross float64
	var ns, nc int
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			if ds.Y[i] == ds.Y[j] {
				same += dist(i, j)
				ns++
			} else {
				cross += dist(i, j)
				nc++
			}
		}
	}
	if ns == 0 || nc == 0 {
		t.Skip("degenerate draw")
	}
	if same/float64(ns) >= cross/float64(nc) {
		t.Fatalf("same-class distance %v >= cross-class %v: classes not separable", same/float64(ns), cross/float64(nc))
	}
}

func TestBatchAndSubset(t *testing.T) {
	ds := SynthCIFAR(SynthCIFARConfig{}, 10, 1, 2)
	x, y := ds.Batch([]int{3, 7})
	if x.Dim(0) != 2 || len(y) != 2 {
		t.Fatal("batch size wrong")
	}
	if y[0] != ds.Y[3] || y[1] != ds.Y[7] {
		t.Fatal("batch labels wrong")
	}
	sx, _ := ds.Sample(3)
	stride := sx.Len()
	for k := 0; k < stride; k++ {
		if x.Data[k] != sx.Data[k] {
			t.Fatal("batch content mismatch with Sample")
		}
	}
	sub := ds.Subset([]int{0, 1, 2})
	if sub.Len() != 3 {
		t.Fatal("subset size wrong")
	}
}

func TestSplitFractions(t *testing.T) {
	ds := SynthCIFAR(SynthCIFARConfig{}, 10, 1, 2)
	tr, va := ds.Split(0.8)
	if tr.Len() != 8 || va.Len() != 2 {
		t.Fatalf("split gave %d/%d", tr.Len(), va.Len())
	}
	// Extremes stay non-empty.
	tr, va = ds.Split(0.0)
	if tr.Len() < 1 || va.Len() < 1 {
		t.Fatal("split must keep both sides non-empty")
	}
	tr, va = ds.Split(1.0)
	if tr.Len() < 1 || va.Len() < 1 {
		t.Fatal("split must keep both sides non-empty")
	}
}

func TestBatchesCoverDatasetOnce(t *testing.T) {
	ds := SynthCIFAR(SynthCIFARConfig{}, 23, 1, 2)
	seen := make([]int, ds.Len())
	for _, b := range ds.Batches(rand.New(rand.NewSource(3)), 5) {
		if len(b) > 5 {
			t.Fatalf("batch size %d > 5", len(b))
		}
		for _, i := range b {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d appears %d times", i, c)
		}
	}
}

// Property: DirichletPartition is an exact cover — every index appears in
// exactly one client.
func TestDirichletPartitionExactCoverProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(200)
		classes := 2 + rng.Intn(8)
		clients := 2 + rng.Intn(8)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(classes)
		}
		parts := DirichletPartition(labels, classes, clients, 0.5, 1, rng)
		seen := make([]int, n)
		for _, p := range parts {
			for _, i := range p {
				seen[i]++
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletPartitionRespectsMinSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	labels := make([]int, 1000)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	parts := DirichletPartition(labels, 10, 10, 0.5, 20, rng)
	for c, p := range parts {
		if len(p) < 20 {
			t.Fatalf("client %d has %d < 20 examples", c, len(p))
		}
	}
}

func TestDirichletSkewIncreasesWithSmallAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	labels := make([]int, 5000)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	skew := func(alpha float64) float64 {
		parts := DirichletPartition(labels, 10, 10, alpha, 1, rand.New(rand.NewSource(3)))
		// Average per-client entropy of the label distribution; lower
		// entropy = more skew.
		var total float64
		for _, p := range parts {
			counts := make([]float64, 10)
			for _, i := range p {
				counts[labels[i]]++
			}
			var h float64
			for _, c := range counts {
				if c > 0 {
					q := c / float64(len(p))
					h -= q * math.Log(q)
				}
			}
			total += h
		}
		return total / 10
	}
	if skew(0.1) >= skew(100) {
		t.Fatalf("alpha=0.1 entropy %v should be below alpha=100 entropy %v", skew(0.1), skew(100))
	}
}

func TestSynthFEMNISTShapes(t *testing.T) {
	set := SynthFEMNIST(SynthFEMNISTConfig{}, 60, 1, 2)
	sh := set.X.Shape()
	if sh[0] != 60 || sh[1] != 1 || sh[2] != 28 || sh[3] != 28 {
		t.Fatalf("shape %v", sh)
	}
	if set.Classes != 62 {
		t.Fatalf("classes = %d", set.Classes)
	}
	for i := range set.Y {
		if set.Writer[i] < 0 || set.Writer[i] >= 50 {
			t.Fatalf("writer %d out of range", set.Writer[i])
		}
	}
}

func TestByWriterPartitionGroupsWriters(t *testing.T) {
	set := SynthFEMNIST(SynthFEMNISTConfig{Writers: 12}, 600, 1, 2)
	parts := ByWriterPartition(set, 4, rand.New(rand.NewSource(3)))
	// Exact cover.
	seen := make([]int, set.Len())
	for _, p := range parts {
		for _, i := range p {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d appears %d times", i, c)
		}
	}
	// No writer split across clients.
	owner := map[int]int{}
	for c, p := range parts {
		for _, i := range p {
			w := set.Writer[i]
			if prev, ok := owner[w]; ok && prev != c {
				t.Fatalf("writer %d split across clients %d and %d", w, prev, c)
			}
			owner[w] = c
		}
	}
}

func TestGammaSamplePositiveAndMeanRoughlyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range []float64{0.3, 0.5, 1, 2, 5} {
		var sum float64
		n := 4000
		for i := 0; i < n; i++ {
			g := gammaSample(rng, shape)
			if g < 0 {
				t.Fatalf("negative gamma sample for shape %v", shape)
			}
			sum += g
		}
		mean := sum / float64(n)
		if math.Abs(mean-shape) > 0.25*shape+0.1 {
			t.Fatalf("gamma(%v) empirical mean %v too far from shape", shape, mean)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, alpha := range []float64{0.1, 0.5, 2} {
		p := dirichlet(rng, 7, alpha)
		var s float64
		for _, v := range p {
			if v < 0 {
				t.Fatal("negative proportion")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("proportions sum to %v", s)
		}
	}
}

func TestShardPartitionCoversAndSkews(t *testing.T) {
	const n, classes, clients, perClient = 600, 10, 6, 2
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % classes
	}
	parts := ShardPartition(labels, clients, perClient, rand.New(rand.NewSource(7)))
	if len(parts) != clients {
		t.Fatalf("got %d parts, want %d", len(parts), clients)
	}
	seen := make([]bool, n)
	for _, p := range parts {
		for _, i := range p {
			if seen[i] {
				t.Fatalf("example %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("example %d unassigned", i)
		}
	}
	// Pathological skew: each shard spans at most 2 labels (it can
	// straddle one label boundary), so a client holds at most
	// 2·shardsPerClient distinct labels — far below the full 10.
	for c, p := range parts {
		labelSet := map[int]bool{}
		for _, i := range p {
			labelSet[labels[i]] = true
		}
		if len(labelSet) > 2*perClient {
			t.Fatalf("client %d sees %d labels, want <= %d", c, len(labelSet), 2*perClient)
		}
	}
}

func TestShardPartitionDeterministic(t *testing.T) {
	labels := make([]int, 300)
	for i := range labels {
		labels[i] = i % 5
	}
	a := ShardPartition(labels, 4, 2, rand.New(rand.NewSource(3)))
	b := ShardPartition(labels, 4, 2, rand.New(rand.NewSource(3)))
	for c := range a {
		if len(a[c]) != len(b[c]) {
			t.Fatalf("client %d sizes differ", c)
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				t.Fatalf("client %d index %d differs", c, i)
			}
		}
	}
}
