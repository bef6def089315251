package fl

import (
	"bytes"
	"strings"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/models"
	"spatl/internal/telemetry"
)

// runQuorumFederation drives a FedAvg federation through QuorumSim with
// a zero-time journal and returns (final state, journal bytes).
func runQuorumFederation(t *testing.T, onTime float64, rounds int) ([]float32, []byte) {
	t.Helper()
	cfg := quickCfg(29)
	cfg.LocalEpochs = 1
	env := testEnv(t, 6, cfg)
	var journal bytes.Buffer
	tel := telemetry.New(&journal)
	tel.Journal.SetZeroTime(true)
	env.EnableTelemetry(tel)
	acfg := env.AlgoConfig()
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = algo.NewFedAvgTrainer(c, acfg)
	}
	env.Topo = Topology{OnTimeFrac: onTime}
	sim := NewSim(env, algo.NewFedAvgAggregator(env.Global, acfg), trainers)
	sel := make([]int, env.Cfg.NumClients)
	for i := range sel {
		sel[i] = i
	}
	for r := 0; r < rounds; r++ {
		sim.Round(r, sel)
	}
	tel.Journal.Flush()
	return env.Global.State(models.ScopeAll), journal.Bytes()
}

// TestQuorumSimDeterministic: the async-quorum driver is bitwise
// reproducible — same seed, same final state, byte-identical zero-time
// journal — because the on-time decision is hashed, not raced.
func TestQuorumSimDeterministic(t *testing.T) {
	s1, j1 := runQuorumFederation(t, 0.6, 3)
	s2, j2 := runQuorumFederation(t, 0.6, 3)
	if len(s1) == 0 || len(s1) != len(s2) {
		t.Fatalf("state lengths %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("state[%d] differs: %v vs %v", i, s1[i], s2[i])
		}
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("zero-time journals differ across identical quorum runs")
	}
}

// TestQuorumSimFoldsLateUploads: with OnTimeFrac < 1 some uploads defer
// and fold into the next round, journaled as quorum_reached and
// late_upload events; with OnTimeFrac 1 the round is synchronous.
func TestQuorumSimFoldsLateUploads(t *testing.T) {
	_, journal := runQuorumFederation(t, 0.5, 3)
	j := string(journal)
	if !strings.Contains(j, telemetry.EvQuorum) {
		t.Fatal("no quorum_reached events in journal")
	}
	if !strings.Contains(j, telemetry.EvLateUpload) {
		t.Fatal("no late_upload events in journal (OnTimeFrac 0.5 over 6 clients x 3 rounds)")
	}

	_, journal = runQuorumFederation(t, 1.0, 2)
	j = string(journal)
	if strings.Contains(j, telemetry.EvQuorum) || strings.Contains(j, telemetry.EvLateUpload) {
		t.Fatal("synchronous quorum (OnTimeFrac 1) must not emit quorum/late events")
	}
}
