package algo

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/models"
)

// swampPair is two full-precision FedAvg uploads of equal weight,
// every value +1e30 in the first and −1e30 in the second. Folded next
// to each other they cancel exactly; folded after other terms they
// swamp them, so a fold that reorders a run shows in the result, which
// a few ordinary uploads summed in float64 and rounded to float32 would
// hide.
func swampPair(n int) []Upload {
	hi, lo := make([]float32, n), make([]float32, n)
	for j := range hi {
		hi[j], lo[j] = 1e30, -1e30
	}
	return []Upload{
		{Client: 5000, TrainSize: 40, Payload: comm.EncodeDense(hi)},
		{Client: 5001, TrainSize: 40, Payload: comm.EncodeDense(lo)},
	}
}

// TestDenseFoldMatchesSerialRef pins the dense run fold bitwise on a
// small state and a large one, RunMassive's MLP (4 fold blocks) and
// full-width resnet20 (134), at GOMAXPROCS 1, 2 and 4. Two FedAvg rounds
// must each equal StreamFoldRefFedAvg over the same fold sequence:
// round 0 two stragglers through CollectLate, one at half precision,
// then one CollectBatch run; round 1 one run led by a swampPair, so a
// fold that walks a run out of order fails. The swampPair has a round
// to itself because it swamps whatever is folded before it.
func TestDenseFoldMatchesSerialRef(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		name    string
		spec    models.Spec
		uploads int
	}{
		{"mlp", models.Spec{Arch: "mlp", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.5}, 17},
		{"resnet20", models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 32, W: 32, Width: 1}, 3},
	}
	for _, tc := range cases {
		n := models.Build(tc.spec, 1).StateLen(models.ScopeAll)
		rng := rand.New(rand.NewSource(5))
		states := randStates(rng, tc.uploads, n)
		ups := swampPair(n)
		for i, st := range states {
			ups = append(ups, Upload{TrainSize: 50 + 7*i, Payload: comm.EncodeDense(st)})
		}
		ids := make([]uint32, len(ups))
		for i := range ups {
			ids[i] = uint32(3 * i)
			ups[i].Client = ids[i]
		}
		late := []Upload{
			{Client: 1, TrainSize: 11, Payload: ups[len(ups)-1].Payload},
			{Client: 2, TrainSize: 23, Payload: comm.EncodeDenseF16Into(nil, states[0])},
		}
		rounds := []struct {
			ids       []uint32
			late, ups []Upload
		}{{ids[2:], late, ups[2:]}, {ids, nil, ups}}
		for _, gmp := range streamProcs {
			runtime.GOMAXPROCS(gmp)
			global := models.Build(tc.spec, 1)
			agg := NewFedAvgAggregator(global, Config{NumClients: 3 * len(ups)})
			for r, rd := range rounds {
				var ref [][]float32
				var ws []float64
				for _, up := range append(slices.Clone(rd.late), rd.ups...) {
					st, _ := comm.DecodeDenseAnyInto(nil, up.Payload)
					ref = append(ref, st)
					ws = append(ws, float64(up.TrainSize))
				}
				agg.BeginRound(r, rd.ids)
				for _, up := range rd.late {
					agg.CollectLate(r, up.Client, up.TrainSize, up.Payload)
				}
				CollectAll(agg, r, rd.ups)
				agg.FinishRound(r)
				bitEq(t, fmt.Sprintf("%s round %d at GOMAXPROCS %d", tc.name, r, gmp), global.State(models.ScopeAll), StreamFoldRefFedAvg(ref, ws))
			}
		}
	}
}
