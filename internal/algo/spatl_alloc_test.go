//go:build !race

// Under the race detector sync.Pool drops a quarter of what is Put, so the
// payload and scratch pools miss at random and an allocation count means
// nothing.

package algo

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/data"
	"spatl/internal/models"
	"spatl/internal/nn"
)

// spatlGreedyUpdateBudget is the most objects a warm SPATL local update
// past the agent's fine-tuning rounds may allocate. It allocates 17 —
// the update's rng, optimizer and control hook, the batch plan, the
// loss-gradient and batch headers and the agent's action: per update,
// never per step, per layer or per graph edge. It allocated 615 when
// Release dropped every layer's tensor header and the agent rebuilt its
// graph, features and caches on every selection.
const spatlGreedyUpdateBudget = 24

// TestSPATLGreedyUpdateAllocationGate counts, never times, one SPATL
// LocalUpdate at the benchmark's geometry — resnet20 w0.25 on 16×16 —
// by a trainer whose agent has finished fine-tuning and now acts
// greedily, as in all but the first rounds of a federation.
func TestSPATLGreedyUpdateAllocationGate(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	cfg := Config{NumClients: 4, LocalEpochs: 1, BatchSize: 16, LR: 0.02, Seed: 3}
	opts := SPATLOptions{FineTuneRounds: 1, FineTuneEpisodes: 2}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 10, H: 16, W: 16, Noise: 0.5}, 60, 4, 5)
	tr, va := ds.Split(0.8)
	c := &Client{ID: 1, Train: tr, Val: va, Model: models.Build(spec, 6)}
	trainer := NewSPATLTrainer(c, opts, cfg)
	agg := NewSPATLAggregator(models.Build(spec, 6), opts, cfg)
	round := 0
	update := func() {
		if trainer.LocalUpdate(round, agg.Broadcast(round)) == nil {
			t.Fatalf("round %d: the update was refused", round)
		}
		round++
	}
	for round < 3 { // fine-tune, then warm the greedy path
		update()
	}
	a := testing.AllocsPerRun(5, update)
	t.Logf("%v objects per greedy update", a)
	if a > spatlGreedyUpdateBudget {
		t.Errorf("a greedy SPATL update allocates %v objects, budget %d", a, spatlGreedyUpdateBudget)
	}
}

// serverRoundAllocs counts, never times, warm server rounds of agg at two
// cores, where regions are dispatched to the worker pool: Broadcast,
// BeginRound, the uploads collected in reverse so all but the last are
// staged, FinishRound. AllocsPerRun cannot see the dispatch path (it sets
// GOMAXPROCS 1), so it reads runtime.MemStats.Mallocs itself, with the
// collector off after one forced cycle. Rounds first to first+warm-1 fill
// the pools and buffers; it returns what each of the next five allocated.
// A gate takes the fewest: another goroutine's allocation can land in one
// round, an allocating server round allocates in every one.
func serverRoundAllocs(agg Aggregator, ids []uint32, ups [][]byte, first, warm int) []uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	round := func(r int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		agg.Broadcast(r)
		agg.BeginRound(r, ids)
		for i := len(ids) - 1; i >= 0; i-- { // all but the last arrive early and are staged
			agg.Collect(r, ids[i], 100, ups[i])
		}
		agg.FinishRound(r)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	for r := first; r < first+warm; r++ {
		round(r)
	}
	var counts []uint64
	for r := first + warm; r < first+warm+5; r++ {
		counts = append(counts, round(r))
	}
	return counts
}

// TestSPATLServerRoundAllocatesNothing: a warm SPATL server round at the
// benchmark's geometry — four Collects of filter-wise sparse uploads —
// allocates nothing at two cores.
func TestSPATLServerRoundAllocatesNothing(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	global := models.Build(spec, 3)
	agg := NewSPATLAggregator(global, SPATLOptions{}, Config{NumClients: 8})
	n := global.StateLen(models.ScopeEncoder)
	nCtrl := nn.ParamCount(global.EncoderParams())
	rng := rand.New(rand.NewSource(4))
	ids := []uint32{0, 2, 5, 7}
	ups := make([][]byte, len(ids))
	for i := range ups {
		ups[i] = comm.JoinPayloads(comm.EncodeSparse(filterSparse(rng, n, 0.6)),
			comm.EncodeSparse(filterSparse(rng, nCtrl, 0.6)))
	}
	counts := serverRoundAllocs(agg, ids, ups, 0, 1) // warms the broadcast body, accumulators, headers, pools
	if slices.Min(counts) != 0 {
		t.Fatalf("every warm SPATL server round allocated: %v objects", counts)
	}
}

// TestSSFLServerRoundAllocatesNothing is the SPATL gate's twin for SSFL's
// mask-static rounds: a warm values-only round at the benchmark's
// geometry — Broadcast, four Collects of values-only frames, three of
// them staged, FinishRound — allocates nothing at two cores, counted the
// same way.
func TestSSFLServerRoundAllocatesNothing(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	agg := NewSSFLAggregator(models.Build(spec, 3), SSFLOptions{}, Config{NumClients: 8})
	agreeSyntheticMask(t, agg, 4, 5)
	rng := rand.New(rand.NewSource(4))
	ids := []uint32{0, 2, 5, 7}
	ups := make([][]byte, len(ids))
	for i := range ups {
		vals := make([]float32, agg.keptN)
		for j := range vals {
			vals[j] = float32(rng.NormFloat64())
		}
		ups[i] = comm.EncodeSparseValsInto(nil, vals)
	}
	// Warm: round 1 is the one full sparse broadcast, round 2 fills the
	// values-only broadcast body and the pools.
	counts := serverRoundAllocs(agg, ids, ups, 1, 2)
	if agg.Dropped() != 0 || agg.StagingPeak() != 3 {
		t.Fatalf("%d uploads dropped, %d staged at most: the rounds did not run as meant",
			agg.Dropped(), agg.StagingPeak())
	}
	if slices.Min(counts) != 0 {
		t.Fatalf("every warm SSFL server round allocated: %v objects", counts)
	}
}

// TestFedNovaServerRoundAllocatesNothing is the SPATL gate's twin for
// FedNova: a warm round at the benchmark's geometry — four three-part
// uploads, three of them staged — allocates nothing at two cores. The
// finalize divides straight into the model through a bound span method.
func TestFedNovaServerRoundAllocatesNothing(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	global := models.Build(spec, 3)
	agg := NewFedNovaAggregator(global, Config{NumClients: 8})
	rng := rand.New(rand.NewSource(4))
	ids := []uint32{0, 2, 5, 7}
	ups := make([][]byte, len(ids))
	for i := range ups {
		steps := [4]byte{byte(2 + i)}
		ups[i] = comm.JoinPayloads(comm.EncodeDense(randStates(rng, 1, global.StateLen(models.ScopeAll))[0]),
			comm.EncodeDense(randStates(rng, 1, len(agg.velocity))[0]), steps[:])
	}
	counts := serverRoundAllocs(agg, ids, ups, 0, 1)
	if agg.Dropped() != 0 || agg.StagingPeak() != 3 {
		t.Fatalf("%d uploads dropped, %d staged at most: the rounds did not run as meant",
			agg.Dropped(), agg.StagingPeak())
	}
	if slices.Min(counts) != 0 {
		t.Fatalf("every warm FedNova server round allocated: %v objects", counts)
	}
}

// TestSCAFFOLDServerRoundAllocatesNothing is the same gate for SCAFFOLD's
// joined (Δw, Δc) uploads.
func TestSCAFFOLDServerRoundAllocatesNothing(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	global := models.Build(spec, 3)
	agg := NewSCAFFOLDAggregator(global, Config{NumClients: 8})
	rng := rand.New(rand.NewSource(4))
	ids := []uint32{0, 2, 5, 7}
	ups := make([][]byte, len(ids))
	for i := range ups {
		ups[i] = comm.JoinPayloads(comm.EncodeDense(randStates(rng, 1, global.StateLen(models.ScopeAll))[0]),
			comm.EncodeDense(randStates(rng, 1, len(agg.c))[0]))
	}
	counts := serverRoundAllocs(agg, ids, ups, 0, 1)
	if agg.Dropped() != 0 || agg.StagingPeak() != 3 {
		t.Fatalf("%d uploads dropped, %d staged at most: the rounds did not run as meant",
			agg.Dropped(), agg.StagingPeak())
	}
	if slices.Min(counts) != 0 {
		t.Fatalf("every warm SCAFFOLD server round allocated: %v objects", counts)
	}
}
