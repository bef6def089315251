package fl

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/models"
	"spatl/internal/telemetry"
)

// runFederation drives a fresh FedAvg federation over the given topology
// and returns the final global state and the client-facing uplink bytes.
func runFederation(t *testing.T, topo Topology, rounds int) ([]float32, int64) {
	t.Helper()
	cfg := quickCfg(19)
	cfg.LocalEpochs = 1
	cfg.DropRate = 0.25 // exercise the drop path in both transports
	env := testEnv(t, 6, cfg)
	acfg := env.AlgoConfig()
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = algo.NewFedAvgTrainer(c, acfg)
	}
	agg := algo.NewFedAvgAggregator(env.Global, acfg)
	sel := make([]int, env.Cfg.NumClients)
	for i := range sel {
		sel[i] = i
	}
	env.Topo = topo
	sim := NewSim(env, agg, trainers)
	for r := 0; r < rounds; r++ {
		sim.Round(r, sel)
	}
	return env.Global.State(models.ScopeAll), env.Meter.Up()
}

// TestShardedSimMatchesFlat: the shard-pooling round is bitwise
// identical to the flat Sim round at every shard count — the tree is a
// collection topology, not an arithmetic change.
func TestShardedSimMatchesFlat(t *testing.T) {
	const rounds = 2
	want, _ := runFederation(t, Topology{}, rounds)
	for _, shards := range []int{1, 3, 4} {
		got, _ := runFederation(t, Topology{Shards: shards}, rounds)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: state length %d vs %d", shards, len(got), len(want))
		}
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("shards=%d: state[%d] differs bitwise: %x vs %x",
					shards, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
			}
		}
	}
}

// TestTopologyShardsTimesQuorum: shard count and on-time fraction are two
// values of one round, so they compose — a sharded round that closes at
// quorum is bitwise the flat round that closes at the same quorum, in
// final model and in client-facing uplink bytes, with real trainers and
// injected drops (TestMassiveShardedMatchesFlat pins the same for
// RunMassive's synthetic clients).
func TestTopologyShardsTimesQuorum(t *testing.T) {
	const rounds = 3
	want, wantUp := runFederation(t, Topology{OnTimeFrac: 0.7}, rounds)
	sync, syncUp := runFederation(t, Topology{}, rounds)
	if wantUp >= syncUp || bitsEqual(want, sync) {
		t.Fatalf("quorum 0.7 deferred nothing over %d rounds (up %d vs synchronous %d)", rounds, wantUp, syncUp)
	}
	got, gotUp := runFederation(t, Topology{Shards: 3, OnTimeFrac: 0.7}, rounds)
	if !bitsEqual(got, want) {
		t.Fatal("shards=3 x on-time 0.7: final state differs from flat x on-time 0.7")
	}
	if gotUp != wantUp {
		t.Fatalf("shards=3 x on-time 0.7: up bytes %d vs flat %d", gotUp, wantUp)
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMassiveShardedMatchesFlat: the synthetic massive federation folds
// to the identical global state whether uploads flow through the shard
// wire format or the flat collect path, and reruns are deterministic.
func TestMassiveShardedMatchesFlat(t *testing.T) {
	for _, onTime := range []float64{0, 0.8} { // synchronous, and closing at quorum
		t.Run(fmt.Sprintf("ontime=%g", onTime), func(t *testing.T) {
			massiveShardedMatchesFlat(t, MassiveConfig{Clients: 2000, PerRound: 300, Rounds: 3, Seed: 9, OnTimeFrac: onTime})
		})
	}
}

func massiveShardedMatchesFlat(t *testing.T, base MassiveConfig) {
	flat := base
	flat.FlatCollect = true
	fr, err := RunMassive(flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 7, 32} {
		cfg := base
		cfg.Shards = shards
		sr, err := RunMassive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Folded != fr.Folded {
			t.Fatalf("shards=%d: folded %d vs flat %d", shards, sr.Folded, fr.Folded)
		}
		if len(sr.FinalState) != len(fr.FinalState) {
			t.Fatalf("shards=%d: state length mismatch", shards)
		}
		for j := range fr.FinalState {
			if math.Float32bits(sr.FinalState[j]) != math.Float32bits(fr.FinalState[j]) {
				t.Fatalf("shards=%d: state[%d] differs bitwise", shards, j)
			}
		}
		again, err := RunMassive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := range sr.FinalState {
			if math.Float32bits(again.FinalState[j]) != math.Float32bits(sr.FinalState[j]) {
				t.Fatalf("shards=%d: rerun not deterministic at state[%d]", shards, j)
			}
		}
	}
}

// TestMassiveOnTimeDraw pins the lateness draw's contract: a pure
// function of (seed, round, client), always on time at the degenerate
// fractions, late with frequency 1−frac, and not the same set every
// round.
func TestMassiveOnTimeDraw(t *testing.T) {
	for _, frac := range []float64{-1, 0, 1, 2} {
		for ci := 0; ci < 100; ci++ {
			if !massiveOnTime(3, 1, ci, frac) {
				t.Fatalf("frac %v: client %d late", frac, ci)
			}
		}
	}
	const n = 20000
	for _, frac := range []float64{0.5, 0.8} {
		onTime, moved := 0, 0
		for ci := 0; ci < n; ci++ {
			a := massiveOnTime(7, 0, ci, frac)
			if a != massiveOnTime(7, 0, ci, frac) {
				t.Fatal("draw is not a function of its arguments")
			}
			if a {
				onTime++
			}
			if a != massiveOnTime(7, 1, ci, frac) {
				moved++
			}
		}
		if got := float64(onTime) / n; math.Abs(got-frac) > 0.02 {
			t.Fatalf("frac %v: %v of %d draws on time", frac, got, n)
		}
		// Independent rounds disagree on 2·frac·(1−frac) of the clients.
		if got, want := float64(moved)/n, 2*frac*(1-frac); math.Abs(got-want) > 0.02 {
			t.Fatalf("frac %v: rounds 0 and 1 disagree on %v of clients, want ≈%v", frac, got, want)
		}
	}
}

// TestMassiveHundredThousandClients: a 100k-client federation completes
// a full sampled round in-process through the sharded tree.
func TestMassiveHundredThousandClients(t *testing.T) {
	if testing.Short() {
		t.Skip("large allocation")
	}
	res, err := RunMassive(MassiveConfig{
		Clients: 100_000, PerRound: 5_000, Shards: 64, Rounds: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 5_000 {
		t.Fatalf("folded %d uploads, want 5000", res.Folded)
	}
	if res.ShardPushes == 0 || len(res.FinalState) == 0 {
		t.Fatalf("round did not complete: pushes=%d stateLen=%d", res.ShardPushes, len(res.FinalState))
	}
}

// TestMassiveQuorumLateFold: with OnTimeFrac < 1 rounds close at quorum
// and stragglers fold into the next round — visible in the result, the
// journal (quorum_reached, late_upload) and the telemetry registry.
func TestMassiveQuorumLateFold(t *testing.T) {
	var journal bytes.Buffer
	tel := telemetry.New(&journal)
	tel.Journal.SetZeroTime(true)
	res, err := RunMassive(MassiveConfig{
		Clients: 500, PerRound: 120, Shards: 8, Rounds: 3,
		OnTimeFrac: 0.7, Seed: 21, Tel: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Late == 0 {
		t.Fatal("no late uploads at OnTimeFrac=0.7")
	}
	if err := tel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}
	j := journal.Bytes()
	if !bytes.Contains(j, []byte(`"ev":"quorum_reached"`)) {
		t.Fatalf("journal records no quorum_reached events:\n%s", j)
	}
	if !bytes.Contains(j, []byte(`"ev":"late_upload"`)) {
		t.Fatalf("journal records no late_upload events:\n%s", j)
	}
	snap := tel.Reg.Snapshot()
	if snap.Counters["fl.late_uploads"] != res.Late {
		t.Fatalf("registry sees %d late uploads, result %d",
			snap.Counters["fl.late_uploads"], res.Late)
	}
	// Late folds count toward Folded too: with final-round stragglers
	// never landing, total folds stay below total samples.
	if res.Folded >= int64(3*120) {
		t.Fatalf("folded %d of %d sampled — final-round stragglers should be unfolded", res.Folded, 3*120)
	}
}
