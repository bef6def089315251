package fl

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spatl/internal/models"
)

// TestFedAvgDeterministicAcrossGOMAXPROCS runs plain FedAvg end to end
// — local training, upload, aggregation — at GOMAXPROCS 1, 2 and 4 for a
// dense and a convolutional model family and demands the same global
// model bit for bit: no reduction's geometry may depend on the core
// count. The explicit values make the comparison real on a one-core box.
func TestFedAvgDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for _, arch := range []string{"mlp", "resnet20"} {
		run := func(procs int) []float32 {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			env := testEnvArch(t, arch, 4, quickCfg(9))
			alg := fedAvg()
			alg.Setup(env)
			for r := 0; r < 2; r++ {
				alg.Round(env, r, env.SampleClients())
			}
			return env.Global.State(models.ScopeAll)
		}
		s1 := run(1)
		for _, procs := range []int{2, 4} {
			sN := run(procs)
			for j := range s1 {
				if math.Float32bits(s1[j]) != math.Float32bits(sN[j]) {
					t.Fatalf("%s: state[%d] differs between GOMAXPROCS 1 and %d: %x vs %x", arch, j, procs,
						math.Float32bits(s1[j]), math.Float32bits(sN[j]))
				}
			}
		}
	}
}

// TestWeightedAverageMatchesSerial demands a FedAvg round be bitwise
// identical, at GOMAXPROCS 1, 2 and 4, to the serial reduction it
// implements — per index Σ nᵢ·xᵢ in float64 over the uploads in
// ascending client order, then one division by Σ nᵢ — with dropped
// uploads among them.
func TestWeightedAverageMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := models.Build(fedAvgSpec, 3).StateLen(models.ScopeAll)
	for _, clients := range []int{1, 3, 10} {
		states := make([][]float32, clients)
		sizes := make([]int, clients)
		for c := range states {
			sizes[c] = 1 + rng.Intn(100)
			if c%4 == 3 {
				continue // dropped upload
			}
			states[c] = make([]float32, n)
			for i := range states[c] {
				states[c][i] = float32(rng.NormFloat64())
			}
		}
		want := make([]float32, n)
		for i := range want {
			var acc, sum float64
			for c, st := range states {
				if st != nil {
					acc += float64(sizes[c]) * float64(st[i])
					sum += float64(sizes[c])
				}
			}
			want[i] = float32(acc / sum)
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := fedAvgRound(t, states, sizes)
			runtime.GOMAXPROCS(prev)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("clients=%d GOMAXPROCS=%d: index %d differs bitwise: %x vs %x",
						clients, procs, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestWeightedAverageAllNil covers the every-client-dropped round: a
// FedAvg round whose selected clients are all absent leaves the global
// state as it was.
func TestWeightedAverageAllNil(t *testing.T) {
	before := models.Build(fedAvgSpec, 3).State(models.ScopeAll)
	after := fedAvgRound(t, make([][]float32, 4), make([]int, 4))
	for i := range before {
		if math.Float32bits(after[i]) != math.Float32bits(before[i]) {
			t.Fatalf("state[%d] moved from %v to %v in a round without uploads", i, before[i], after[i])
		}
	}
}
