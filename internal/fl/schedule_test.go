package fl

import (
	"math"
	"testing"

	"spatl/internal/nn"
)

func TestLRAtUsesSchedule(t *testing.T) {
	env := testEnv(t, 2, quickCfg(30))
	if got := env.LRAt(0); got != env.Cfg.LR {
		t.Fatalf("without schedule LRAt = %v, want cfg LR %v", got, env.Cfg.LR)
	}
	env.Cfg.LRSchedule = nn.StepLR{Base: 0.1, Gamma: 0.5, Every: 2}
	if got := env.LRAt(0); got != 0.1 {
		t.Fatalf("LRAt(0) = %v", got)
	}
	if got := env.LRAt(2); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("LRAt(2) = %v", got)
	}
}

func TestScheduledRunStillLearns(t *testing.T) {
	env := testEnv(t, 3, quickCfg(31))
	env.Cfg.LRSchedule = nn.WarmupLR{Steps: 2, Then: nn.CosineLR{Base: 0.05, Min: 0.005, Horizon: 8}}
	res := Run(env, fedAvg(), RunOpts{Rounds: 6})
	if res.BestAcc() < 0.40 {
		t.Fatalf("scheduled FedAvg best acc %.3f", res.BestAcc())
	}
}

func TestScheduleAffectsTrajectory(t *testing.T) {
	base := Run(testEnv(t, 2, quickCfg(32)), fedAvg(), RunOpts{Rounds: 3})
	env := testEnv(t, 2, quickCfg(32))
	env.Cfg.LRSchedule = nn.ConstantLR(0.001) // much smaller than default
	slow := Run(env, fedAvg(), RunOpts{Rounds: 3})
	same := true
	for i := range base.Records {
		if math.Abs(base.Records[i].AvgAcc-slow.Records[i].AvgAcc) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Fatal("changing the LR schedule must change the trajectory")
	}
}
