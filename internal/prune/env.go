package prune

import (
	"sync"

	"spatl/internal/data"
	"spatl/internal/eval"
	"spatl/internal/graph"
	"spatl/internal/models"
)

// scoreBatch is the evaluation batch of an episode. The logits do not
// depend on it (evaluation treats every sample alone); it bounds the
// activations each concurrently scoring episode holds.
const scoreBatch = 16

// Env is the network-pruning reinforcement-learning environment of
// §IV-B1: the state is the model's computational graph, the action is
// the per-unit keep-ratio vector, and the reward is the selected
// sub-network's validation accuracy (eq. 7), penalized when the analytic
// FLOPs ratio exceeds the budget — the "size constraint" of the search
// loop.
//
// A Step scores the sub-network itself: the selection is extracted
// (Extract) into a workspace the Env keeps for the Step's slot, which
// computes bit for bit what the model with the pruned channels zeroed
// would, on fewer channels. The model is only read, so Steps on distinct
// slots may run at once.
type Env struct {
	Model *models.SplitModel
	Val   *data.Dataset
	// FLOPsBudget is the allowed pruned/total FLOPs ratio (e.g. 0.6).
	FLOPsBudget float64
	// Penalty scales the constraint violation term. Default 2.
	Penalty float64

	graph *graph.Graph // the model's graph, built once, refreshed by State
	mu    sync.Mutex
	slots []*workspace // extraction workspace per slot, built on first use
}

// NewEnv constructs a pruning environment. It builds the model's graph,
// whose forward pass (Describe) also puts in place the layer geometry
// the FLOPs count reads before any Step.
func NewEnv(m *models.SplitModel, val *data.Dataset, budget float64) *Env {
	return &Env{Model: m, Val: val, FLOPsBudget: budget, Penalty: 2, graph: graph.FromEncoder(m)}
}

// State implements rl.Environment: the Env's one graph, its edge weight
// statistics refreshed (graph.Refresh) so they reflect the model's
// current parameters. The structure and geometry were built once by
// NewEnv; the returned graph is the Env's and changes at the next State.
func (e *Env) State() *graph.Graph {
	e.graph.Refresh()
	return e.graph
}

// Step implements rl.Environment.
func (e *Env) Step(slot int, action []float64) float64 {
	ws := e.workspace(slot)
	sel := SelectInto(&ws.sel, e.Model, action)
	pr, tot := maskedFLOPs(e.Model, sel.Masks)
	ratio := float64(pr) / float64(tot)
	r := eval.Accuracy(ws.extract(e.Model, sel), e.Val, scoreBatch)
	if ratio > e.FLOPsBudget {
		r -= e.Penalty * (ratio - e.FLOPsBudget)
	}
	return r
}

// workspace returns slot's extraction workspace, building it on the
// slot's first Step.
func (e *Env) workspace(slot int) *workspace {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.slots) <= slot {
		e.slots = append(e.slots, nil)
	}
	if e.slots[slot] == nil {
		e.slots[slot] = newWorkspace(e.Model)
	}
	return e.slots[slot]
}
