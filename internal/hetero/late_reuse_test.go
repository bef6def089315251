package hetero

import (
	"bytes"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/rl"
)

// TestCollectLatePayloadReusable pins Aggregator.CollectLate's contract
// — the payload may be reused as soon as the call returns, as with
// Collect — on the four aggregator families: dense, SPATL, SSFL and
// hetero. fl.Sim returns a straggler's pooled copy to the pool right
// after CollectLate, so an aggregator that kept the bytes would fold
// whatever the pool's next user wrote. Round 1's uploads all miss the
// quorum and land in round 2; one run overwrites each payload the
// moment CollectLate returns, and its final broadcast must equal an
// untouched run's byte for byte.
func TestCollectLatePayloadReusable(t *testing.T) {
	const clients, seed = 3, 17
	spatlOpts := algo.SPATLOptions{AgentCfg: rl.AgentConfig{Dim: 8, HeadHidden: 8, Seed: 6}}
	for _, tc := range []struct {
		name string
		alg  func() *fl.Federation
	}{
		{"dense", func() *fl.Federation {
			return fl.NewAlgorithm("fedavg", algo.NewFedAvgAggregator, algo.NewFedAvgTrainer)
		}},
		{"spatl", func() *fl.Federation {
			return fl.NewAlgorithm("spatl",
				func(g *models.SplitModel, cfg algo.Config) *algo.SPATLAggregator {
					return algo.NewSPATLAggregator(g, spatlOpts, cfg)
				},
				func(c *fl.Client, cfg algo.Config) *algo.SPATLTrainer { return algo.NewSPATLTrainer(c, spatlOpts, cfg) })
		}},
		{"ssfl", func() *fl.Federation {
			return fl.NewAlgorithm("ssfl",
				func(g *models.SplitModel, cfg algo.Config) *algo.SSFLAggregator {
					return algo.NewSSFLAggregator(g, algo.SSFLOptions{}, cfg)
				},
				func(c *fl.Client, cfg algo.Config) *algo.SSFLTrainer {
					return algo.NewSSFLTrainer(c, algo.SSFLOptions{}, cfg)
				})
		}},
		{"hetero", func() *fl.Federation { return newFL(Options{Clusters: 2, Widths: []float64{0.5, 1}}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(overwrite bool) (before, after []byte) {
				env := testEnv(t, "resnet20", 0.25, clients, seed)
				f := tc.alg()
				f.Setup(env)
				agg, trainers := f.Aggregator(), f.Trainers()
				ids := []uint32{0, 1, 2}
				// Round 0 on time (SSFL agrees its mask here); round 1 all
				// late.
				late := make([][]byte, clients)
				for r := 0; r < 2; r++ {
					bcast := agg.Broadcast(r)
					agg.BeginRound(r, ids)
					for ci, tr := range trainers {
						up := tr.LocalUpdate(r, bcast)
						if r == 0 {
							agg.Collect(r, uint32(ci), env.Clients[ci].Train.Len(), up)
						} else {
							agg.MarkAbsent(r, uint32(ci))
							late[ci] = append([]byte(nil), up...)
						}
					}
					agg.FinishRound(r)
				}
				before = append([]byte(nil), agg.Final()...)
				agg.Broadcast(2)
				agg.BeginRound(2, nil)
				for ci, up := range late {
					agg.CollectLate(2, uint32(ci), env.Clients[ci].Train.Len(), up)
					if overwrite {
						for j := range up {
							up[j] = 0xa5
						}
					}
				}
				agg.FinishRound(2)
				if d, ok := agg.(interface{ Dropped() int64 }); ok && d.Dropped() != 0 {
					t.Fatalf("%d uploads dropped", d.Dropped())
				}
				return before, append([]byte(nil), agg.Final()...)
			}
			before, want := run(false)
			if bytes.Equal(before, want) {
				t.Fatal("the late uploads moved nothing: the test would pass vacuously")
			}
			if _, got := run(true); !bytes.Equal(got, want) {
				t.Fatal("overwriting a payload after CollectLate returned changed the final state")
			}
		})
	}
}
