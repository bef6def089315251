//go:build !race

// Under the race detector sync.Pool drops a quarter of what is Put, so the
// scratch pools miss at random and an allocation count means nothing.

package prune_test

import (
	"math/rand"
	"runtime"
	"testing"

	"spatl/internal/data"
	"spatl/internal/models"
	"spatl/internal/prune"
	"spatl/internal/rl"
)

// rolloutAllocBudget is the most objects one steady-state fine-tuning
// update (rl.Train of one round of two episodes) may allocate: the count
// (40 on this test's data) plus 10 %. The Env keeps its graph and
// refreshes only the weight statistics, the agent refills its forward
// caches, each episode selects into its slot's Selection and scores in
// its slot's extraction workspace, and a step's FLOPs count scans the
// units instead of building three maps (58 objects with the maps). The
// update allocated 3044 objects when the state was rebuilt — a batch-1
// forward, a feature slice per edge — and the agent's tensors drawn
// fresh on every forward; building a new sub-network for each episode
// costs about 740 objects more per episode.
const rolloutAllocBudget = 44

// TestRolloutAllocationGate counts, never times, a client's head-only
// fine-tuning update at the benchmark's geometry.
func TestRolloutAllocationGate(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	spec := models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	m := models.Build(spec, 1)
	val := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 10, H: 16, W: 16, Noise: 0.5}, 30, 3, 4)
	env := prune.NewEnv(m, val, 0.6)
	ppo := rl.NewPPO(rl.NewAgent(rl.AgentConfig{Dim: 16, HeadHidden: 32, Seed: 5}), true)
	rng := rand.New(rand.NewSource(6))
	a := testing.AllocsPerRun(10, func() { rl.Train(ppo, env, 1, 2, rng) })
	t.Logf("%v objects per update", a)
	if a > rolloutAllocBudget {
		t.Errorf("a fine-tuning update allocates %v objects, budget %d", a, rolloutAllocBudget)
	}
}
