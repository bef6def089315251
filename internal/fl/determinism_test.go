package fl

import (
	"math"
	"math/rand"
	"runtime"
	"spatl/internal/algo"
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

// TestWeightedAverageMatchesSerial demands the parallel reduction be
// bitwise identical to the retained serial reference across sizes that
// exercise chunk boundaries, including nil states from failure
// injection.
func TestWeightedAverageMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 7, 63, 64, 65, 1000, 4097} {
		for _, clients := range []int{1, 3, 10} {
			states := make([][]float32, clients)
			weights := make([]float64, clients)
			for c := range states {
				if c%4 == 3 {
					continue // dropped upload
				}
				st := make([]float32, n)
				for i := range st {
					st[i] = float32(rng.NormFloat64())
				}
				states[c] = st
				weights[c] = float64(1 + rng.Intn(100))
			}
			got := algo.WeightedAverage(states, weights)
			want := algo.WeightedAverageSerial(states, weights)
			if (got == nil) != (want == nil) {
				t.Fatalf("n=%d clients=%d: nil mismatch", n, clients)
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d clients=%d: index %d differs bitwise: %x vs %x",
						n, clients, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestWeightedAverageAllNil covers the every-client-dropped round.
func TestWeightedAverageAllNil(t *testing.T) {
	if got := algo.WeightedAverage(make([][]float32, 4), make([]float64, 4)); got != nil {
		t.Fatalf("expected nil, got %v", got)
	}
}
