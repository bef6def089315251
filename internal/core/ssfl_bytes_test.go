package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/core"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/rl"
	"spatl/internal/telemetry"
)

// bytesFixture builds identical federation inputs for the wire-cost
// comparisons below.
func bytesFixture(clients, classes int, arch string, width float64) (models.Spec, []fl.ClientData) {
	spec := models.Spec{Arch: arch, Classes: classes, InC: 3, H: 8, W: 8, Width: width}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: classes, H: 8, W: 8, Noise: 0.25}, clients*40, 1, 2)
	parts := data.DirichletPartition(ds.Y, classes, clients, 0.5, 10, rand.New(rand.NewSource(3)))
	cd := make([]fl.ClientData, clients)
	for i := range cd {
		cd[i].Train, cd[i].Val = ds.Subset(parts[i]).Split(0.8)
	}
	return spec, cd
}

func ssfl(opts algo.SSFLOptions) *fl.Federation {
	return fl.NewAlgorithm("ssfl",
		func(g *models.SplitModel, cfg algo.Config) *algo.SSFLAggregator {
			return algo.NewSSFLAggregator(g, opts, cfg)
		},
		func(c *fl.Client, cfg algo.Config) *algo.SSFLTrainer {
			return algo.NewSSFLTrainer(c, opts, cfg)
		})
}

// runMetered runs an algorithm for the given rounds with full
// participation and returns per-round (uplink, downlink) meter deltas
// plus the telemetry set for counter/journal assertions.
func runMetered(t *testing.T, alg *fl.Federation, spec models.Spec, cd []fl.ClientData,
	rounds int, seed int64, journal *bytes.Buffer) (up, down []int64, tel *telemetry.Set) {
	t.Helper()
	clients := len(cd)
	env := fl.NewEnv(spec, fl.Config{
		NumClients: clients, SampleRatio: 1, LocalEpochs: 1,
		BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: seed,
	}, cd)
	tel = telemetry.New(journal)
	tel.Journal.SetZeroTime(true)
	env.EnableTelemetry(tel)
	all := make([]int, clients)
	for i := range all {
		all[i] = i
	}
	alg.Setup(env)
	up = make([]int64, rounds)
	down = make([]int64, rounds)
	var prevUp, prevDown int64
	for r := 0; r < rounds; r++ {
		alg.Round(env, r, all)
		up[r] = env.Meter.Up() - prevUp
		down[r] = env.Meter.Down() - prevDown
		prevUp, prevDown = env.Meter.Up(), env.Meter.Down()
	}
	if err := tel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}
	return up, down, tel
}

// TestSSFLBeatsSPATLBytesAtSameSparsity pins the wire-cost claim in a
// controlled apples-to-apples setting: on an MLP (no prunable units)
// both protocols keep 100% of the encoder — identical sparsity — yet
// every SSFL round after mask agreement moves strictly fewer bytes in
// both directions, because values-only frames carry no index ranges
// and no multi-part join framing. SPATL runs its leanest ablation
// (selection and gradient control disabled) so the margin is entirely
// the wire format, not SPATL's control traffic.
func TestSSFLBeatsSPATLBytesAtSameSparsity(t *testing.T) {
	const (
		clients = 3
		rounds  = 3
		seed    = 29
	)
	spec, cd := bytesFixture(clients, 4, "mlp", 0.5)

	var ssflJ bytes.Buffer
	ssflUp, ssflDown, tel := runMetered(t, ssfl(algo.SSFLOptions{}), spec, cd, rounds, seed, &ssflJ)
	var spatlJ bytes.Buffer
	spatlUp, spatlDown, _ := runMetered(t,
		core.New(core.Options{DisableSelection: true, DisableGradControl: true}),
		spec, cd, rounds, seed, &spatlJ)

	// Rounds after agreement (and after the one index-bearing round) are
	// values-only: strictly cheaper than SPATL at identical density.
	for r := 2; r < rounds; r++ {
		if ssflUp[r] >= spatlUp[r] {
			t.Errorf("round %d uplink: ssfl %d >= spatl %d", r, ssflUp[r], spatlUp[r])
		}
		if ssflDown[r] >= spatlDown[r] {
			t.Errorf("round %d downlink: ssfl %d >= spatl %d", r, ssflDown[r], spatlDown[r])
		}
	}

	// The sparse wire path is accounted in telemetry: the counters cover
	// exactly the post-agreement traffic the meter saw (the downlink
	// counter meters the broadcast frame once per round; the sim meter
	// charges it once per recipient), and the journal carries the
	// agreement event.
	snap := tel.Reg.Snapshot()
	var wantUp, wantDown int64
	for r := 1; r < rounds; r++ {
		wantUp += ssflUp[r]
		wantDown += ssflDown[r]
	}
	if got := snap.Counters["comm.sparse_up_bytes"]; got != wantUp {
		t.Errorf("comm.sparse_up_bytes = %d, want %d (post-agreement uplink)", got, wantUp)
	}
	if got := snap.Counters["comm.sparse_down_bytes"]; got*int64(clients) != wantDown {
		t.Errorf("comm.sparse_down_bytes = %d, want %d (post-agreement broadcast frames)", got, wantDown/int64(clients))
	}
	if !bytes.Contains(ssflJ.Bytes(), []byte(`"ev":"mask_agreement"`)) {
		t.Fatalf("SSFL journal lacks mask_agreement:\n%s", ssflJ.Bytes())
	}
}

// TestSSFLBeatsSPATLBytesEndToEnd compares the full pipelines on a
// prunable ResNet: SSFL at KeepRatio 0.5 against SPATL with its
// RL-driven selection (FLOPs budget 0.6, so SPATL keeps MORE weight
// per round than it ships indices for) and gradient control. This is
// the experiment-suite configuration; steady-state SSFL rounds must
// move strictly fewer bytes each way.
func TestSSFLBeatsSPATLBytesEndToEnd(t *testing.T) {
	const (
		clients = 3
		rounds  = 3
		seed    = 29
	)
	spec, cd := bytesFixture(clients, 4, "resnet20", 0.25)

	var ssflJ bytes.Buffer
	ssflUp, ssflDown, _ := runMetered(t,
		ssfl(algo.SSFLOptions{KeepRatio: 0.5}), spec, cd, rounds, seed, &ssflJ)
	var spatlJ bytes.Buffer
	spatlUp, spatlDown, _ := runMetered(t,
		core.New(core.Options{AgentCfg: rl.AgentConfig{Dim: 8, HeadHidden: 8, Seed: 6}}),
		spec, cd, rounds, seed, &spatlJ)

	for r := 2; r < rounds; r++ {
		if ssflUp[r] >= spatlUp[r] {
			t.Errorf("round %d uplink: ssfl %d >= spatl %d", r, ssflUp[r], spatlUp[r])
		}
		if ssflDown[r] >= spatlDown[r] {
			t.Errorf("round %d downlink: ssfl %d >= spatl %d", r, ssflDown[r], spatlDown[r])
		}
	}

	// The values-only uplink is exactly the packed frame size — nothing
	// else rides the wire after agreement.
	if ssflUp[rounds-1]%int64(clients) != 0 {
		t.Fatalf("steady-state uplink %d not divisible by %d clients", ssflUp[rounds-1], clients)
	}
	perClient := int(ssflUp[rounds-1] / int64(clients))
	n := (perClient - 5) / 4
	if comm.SparseValsLen(n) != perClient {
		t.Fatalf("steady-state uplink per client %d is not a values-only frame", perClient)
	}
}
