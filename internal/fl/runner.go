package fl

import (
	"fmt"
	"io"
	"math"

	"spatl/internal/telemetry"
)

// RoundRecord captures the state of the simulation after one round.
type RoundRecord struct {
	Round     int
	AvgAcc    float64   // mean top-1 accuracy across all clients' val sets
	PerClient []float64 // per-client accuracy (index = client ID); nil from a journal
	CumUp     int64     // cumulative client→server bytes
	CumDown   int64     // cumulative server→client bytes
	Selected  []int     // the round's selected clients, ascending (dropped ones included)
}

// Result is the full trajectory of a federated run, from Run or from a
// cell journal (scenario.StatsFromJournal). Its methods are the tree's
// one set of trajectory reductions.
type Result struct {
	Records []RoundRecord
}

// FinalAcc returns the last recorded average accuracy.
func (r *Result) FinalAcc() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	return r.Records[len(r.Records)-1].AvgAcc
}

// BestAcc returns the best average accuracy seen.
func (r *Result) BestAcc() float64 {
	best := 0.0
	for _, rec := range r.Records {
		if rec.AvgAcc > best {
			best = rec.AvgAcc
		}
	}
	return best
}

// RoundsToAcc returns the first round (1-based count of completed
// rounds) at which the average accuracy reached target, or -1 if never.
func (r *Result) RoundsToAcc(target float64) int {
	for _, rec := range r.Records {
		if rec.AvgAcc >= target {
			return rec.Round + 1
		}
	}
	return -1
}

// UpAt returns cumulative uplink bytes at the first round reaching the
// target accuracy, or at the end of the run if never reached.
func (r *Result) UpAt(target float64) int64 {
	for _, rec := range r.Records {
		if rec.AvgAcc >= target {
			return rec.CumUp
		}
	}
	if len(r.Records) == 0 {
		return 0
	}
	return r.Records[len(r.Records)-1].CumUp
}

// ConvergedRound applies a plateau heuristic: the first round after
// which the best accuracy improves by less than eps over a trailing
// window. Returns the last round if no plateau is found.
func (r *Result) ConvergedRound(window int, eps float64) int {
	if len(r.Records) == 0 {
		return 0
	}
	best := 0.0
	bestRound := 0
	for _, rec := range r.Records {
		if rec.AvgAcc > best+eps {
			best = rec.AvgAcc
			bestRound = rec.Round
		}
	}
	converged := bestRound + window
	last := r.Records[len(r.Records)-1].Round
	if converged > last {
		converged = last
	}
	return converged + 1
}

// RunOpts configures a federated run.
type RunOpts struct {
	Rounds    int
	TargetAcc float64 // stop early once reached (0 disables)
	Log       io.Writer
}

// Run executes a full federated-learning experiment: round loop with
// client sampling, algorithm execution, evaluation after every round
// (one record per round), early stop at the target accuracy, and
// divergence-tolerant accounting (a diverged model simply keeps
// reporting chance-level accuracy, as in the paper's SCAFFOLD rows).
func Run(env *Env, algo *Federation, opts RunOpts) *Result {
	algo.Setup(env)
	res := &Result{}
	for round := 0; round < opts.Rounds; round++ {
		selected := env.SampleClients()
		algo.Round(env, round, selected)
		rec := RoundRecord{
			Round:     round,
			PerClient: make([]float64, len(env.Clients)),
			CumUp:     env.Meter.Up(),
			CumDown:   env.Meter.Down(),
			Selected:  selected,
		}
		var sum float64
		for i, c := range env.Clients {
			acc := EvalAccuracy(algo.EvalModel(env, c), c.Val, 64)
			if math.IsNaN(acc) {
				acc = 0
			}
			rec.PerClient[i] = acc
			sum += acc
		}
		rec.AvgAcc = sum / float64(len(env.Clients))
		env.Tel.Emit(telemetry.Eval(round, rec.AvgAcc))
		res.Records = append(res.Records, rec)
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "[%s] round %3d  acc %.4f  up %.2fMB  down %.2fMB\n",
				algo.Name(), round+1, rec.AvgAcc, float64(rec.CumUp)/(1<<20), float64(rec.CumDown)/(1<<20))
		}
		if opts.TargetAcc > 0 && rec.AvgAcc >= opts.TargetAcc {
			break
		}
	}
	return res
}
