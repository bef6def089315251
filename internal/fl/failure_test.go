package fl

import (
	"math"
	"testing"
)

func TestClientFailedDeterministicAndRateful(t *testing.T) {
	env := testEnv(t, 4, quickCfg(50))
	env.Cfg.DropRate = 0.5
	// Deterministic.
	for round := 0; round < 3; round++ {
		for ci := 0; ci < 4; ci++ {
			if env.ClientFailed(round, ci) != env.ClientFailed(round, ci) {
				t.Fatal("failure decision must be deterministic")
			}
		}
	}
	// Empirical rate over many (round, client) pairs ≈ DropRate.
	fails := 0
	const trials = 4000
	for round := 0; round < trials/4; round++ {
		for ci := 0; ci < 4; ci++ {
			if env.ClientFailed(round, ci) {
				fails++
			}
		}
	}
	rate := float64(fails) / trials
	if math.Abs(rate-0.5) > 0.05 {
		t.Fatalf("empirical drop rate %.3f, want ≈0.5", rate)
	}
	// Disabled by default.
	env.Cfg.DropRate = 0
	if env.ClientFailed(0, 0) {
		t.Fatal("DropRate 0 must never fail")
	}
}

func TestAlgorithmsSurvivePartialFailures(t *testing.T) {
	for _, algo := range []*Federation{fedAvg(), fedProx(), scaffold(), fedNova()} {
		t.Run(algo.Name(), func(t *testing.T) {
			env := testEnv(t, 4, quickCfg(51))
			env.Cfg.DropRate = 0.4
			res := Run(env, algo, RunOpts{Rounds: 4})
			if len(res.Records) != 4 {
				t.Fatal("run did not complete under failures")
			}
			for _, rec := range res.Records {
				if math.IsNaN(rec.AvgAcc) {
					t.Fatal("failure injection produced NaN accuracy")
				}
			}
			// Should still learn despite losing 40% of uploads.
			if res.BestAcc() < 0.30 {
				t.Fatalf("%s best acc %.3f under 40%% drops", algo.Name(), res.BestAcc())
			}
		})
	}
}

func TestTotalFailureRoundKeepsGlobalModel(t *testing.T) {
	env := testEnv(t, 3, quickCfg(52))
	env.Cfg.DropRate = 1.0 // everything is lost
	before := env.Global.State(0)
	res := Run(env, fedAvg(), RunOpts{Rounds: 2})
	after := env.Global.State(0)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("with all uploads lost, the global model must not change")
		}
	}
	if len(res.Records) != 2 {
		t.Fatal("run must complete even when every upload is lost")
	}
}

func TestFailuresReduceUplinkOnly(t *testing.T) {
	// Failed clients still download (they crash afterwards), so failures
	// shrink uplink but not downlink.
	clean := testEnv(t, 4, quickCfg(53))
	resClean := Run(clean, fedAvg(), RunOpts{Rounds: 2})
	lossy := testEnv(t, 4, quickCfg(53))
	lossy.Cfg.DropRate = 0.6
	resLossy := Run(lossy, fedAvg(), RunOpts{Rounds: 2})
	cl, lo := resClean.Records[1], resLossy.Records[1]
	if lo.CumUp >= cl.CumUp {
		t.Fatalf("lossy uplink %d should be below clean %d", lo.CumUp, cl.CumUp)
	}
	if lo.CumDown != cl.CumDown {
		t.Fatalf("downlink should be unchanged: %d vs %d", lo.CumDown, cl.CumDown)
	}
}

func TestHalfPrecisionHalvesTrafficAndLearns(t *testing.T) {
	full := testEnv(t, 3, quickCfg(60))
	resFull := Run(full, fedAvg(), RunOpts{Rounds: 3})
	half := testEnv(t, 3, quickCfg(60))
	half.Cfg.HalfPrecision = true
	resHalf := Run(half, fedAvg(), RunOpts{Rounds: 3})

	ratio := float64(resHalf.Records[2].CumUp) / float64(resFull.Records[2].CumUp)
	if ratio > 0.55 || ratio < 0.45 {
		t.Fatalf("half-precision uplink ratio %.3f, want ≈0.5", ratio)
	}
	if resHalf.BestAcc() < 0.40 {
		t.Fatalf("half-precision FedAvg best acc %.3f", resHalf.BestAcc())
	}
}

func TestHalfPrecisionSCAFFOLD(t *testing.T) {
	env := testEnv(t, 3, quickCfg(61))
	env.Cfg.HalfPrecision = true
	res := Run(env, scaffold(), RunOpts{Rounds: 3})
	if res.BestAcc() < 0.30 {
		t.Fatalf("half-precision SCAFFOLD best acc %.3f", res.BestAcc())
	}
}
