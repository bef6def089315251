package algo

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/data"
	"spatl/internal/models"
)

var ssflSpec = models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}

// agreeSyntheticMask drives an aggregator through a synthetic agreement
// round: every client uploads random positive scores.
func agreeSyntheticMask(t *testing.T, agg *SSFLAggregator, clients int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	scoreLen := ssflScoreLen(agg.Global)
	for i := 0; i < clients; i++ {
		scores := make([]float32, scoreLen)
		for j := range scores {
			scores[j] = float32(rng.Float64())
		}
		agg.Collect(0, uint32(i), 50+i*10, comm.EncodeDense(scores))
	}
	agg.FinishRound(0)
	if agg.Selection() == nil {
		t.Fatal("agreement round did not fix a selection")
	}
}

// TestSSFLPackedReduceMatchesReference: the packed FinishRound reduce
// must be bitwise identical to the retained dense reference at
// GOMAXPROCS 1, 2 and 4 — the mask never participates in FP order.
func TestSSFLPackedReduceMatchesReference(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		global := models.Build(ssflSpec, 11)
		agg := NewSSFLAggregator(global, SSFLOptions{KeepRatio: 0.5}, Config{NumClients: 4})
		agreeSyntheticMask(t, agg, 4, 17)

		state0 := global.State(models.ScopeEncoder)
		rng := rand.New(rand.NewSource(29))
		packed := make([][]float32, 4)
		weights := make([]float64, 4)
		for i := range packed {
			vals := make([]float32, agg.keptN)
			for j := range vals {
				vals[j] = float32(rng.NormFloat64())
			}
			packed[i] = vals
			weights[i] = float64(40 + i*7)
			agg.Collect(1, uint32(i), int(weights[i]), comm.EncodeSparseValsInto(nil, vals))
		}
		want := SSFLReduceReference(state0, packed, weights, agg.ranges)
		agg.FinishRound(1)
		if d := agg.Dropped(); d != 0 {
			t.Fatalf("well-formed uploads counted as dropped: %d", d)
		}
		got := global.State(models.ScopeEncoder)
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("procs=%d: state[%d] differs bitwise: %x vs %x", procs, j,
					math.Float32bits(got[j]), math.Float32bits(want[j]))
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestSSFLAggregatorCountsDrops: malformed score and values-only uploads
// must be counted, never fatal, and never buffered.
func TestSSFLAggregatorCountsDrops(t *testing.T) {
	global := models.Build(ssflSpec, 3)
	agg := NewSSFLAggregator(global, SSFLOptions{}, Config{NumClients: 2})

	agg.Collect(0, 0, 10, []byte{0xFF, 0x01})                              // garbage frame
	agg.Collect(0, 1, 10, comm.EncodeDense([]float32{1, 2, 3}))            // wrong score length
	agg.Collect(0, 2, 10, comm.EncodeSparseValsInto(nil, []float32{1, 2})) // wrong frame kind for phase
	if got := agg.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
	if agg.folded != 0 {
		t.Fatalf("malformed uploads folded: %d", agg.folded)
	}
	// Zero survivors: agreement still happens from the global's own
	// saliency, so the federation enters the sparse epoch regardless.
	agg.FinishRound(0)
	if agg.Selection() == nil {
		t.Fatal("no-survivor agreement round must still fix a mask")
	}

	agg.Collect(1, 0, 10, comm.EncodeSparseValsInto(nil, []float32{1, 2})) // wrong count
	agg.Collect(1, 1, 10, []byte{0x56, 4, 0, 0, 0, 7, 0})                  // truncated values frame
	vals := make([]float32, agg.keptN)
	agg.Collect(1, 2, 10, comm.EncodeSparseValsInto(nil, vals)) // well-formed
	if got := agg.Dropped(); got != 5 {
		t.Fatalf("Dropped() = %d, want 5", got)
	}
	if agg.folded != 1 {
		t.Fatalf("folded = %d, want 1 (the good upload survives)", agg.folded)
	}
	agg.FinishRound(1)
}

// TestSSFLCollectBatchMatchesSequential: CollectBatch must fold the
// same vectors in the same order as sequential Collect calls — the two
// aggregates finish bitwise identical.
func TestSSFLCollectBatchMatchesSequential(t *testing.T) {
	build := func() *SSFLAggregator {
		agg := NewSSFLAggregator(models.Build(ssflSpec, 5), SSFLOptions{KeepRatio: 0.5}, Config{NumClients: 3})
		agreeSyntheticMask(t, agg, 3, 41)
		return agg
	}
	a1, a2 := build(), build()
	rng := rand.New(rand.NewSource(43))
	var ups []Upload
	for i := 0; i < 3; i++ {
		vals := make([]float32, a1.keptN)
		for j := range vals {
			vals[j] = float32(rng.NormFloat64())
		}
		payload := comm.EncodeSparseValsInto(nil, vals)
		ups = append(ups, Upload{Client: uint32(i), TrainSize: 30 + i, Payload: payload})
		a1.Collect(1, uint32(i), 30+i, payload)
	}
	ups = append(ups, Upload{Client: 9, TrainSize: 5, Payload: []byte{1, 2, 3}}) // malformed
	a2.CollectBatch(1, ups)
	if a2.Dropped() != a1.Dropped()+1 {
		t.Fatalf("batch dropped = %d, sequential = %d", a2.Dropped(), a1.Dropped())
	}
	if a1.folded != a2.folded || a1.sumW != a2.sumW {
		t.Fatalf("fold state differs: %d/%v vs %d/%v", a1.folded, a1.sumW, a2.folded, a2.sumW)
	}
	a1.FinishRound(1)
	a2.FinishRound(1)
	s1 := a1.Global.State(models.ScopeEncoder)
	s2 := a2.Global.State(models.ScopeEncoder)
	for j := range s1 {
		if math.Float32bits(s1[j]) != math.Float32bits(s2[j]) {
			t.Fatalf("state[%d] differs between batch and sequential collect", j)
		}
	}
}

// ssflFixture is a transport-free two-client federation.
type ssflFixture struct {
	agg      *SSFLAggregator
	trainers []*SSFLTrainer
	sizes    []int
}

func newSSFLFixture(seed int64) *ssflFixture {
	cfg := Config{NumClients: 2, LocalEpochs: 1, BatchSize: 8, LR: 0.05, Momentum: 0.9, Seed: seed}
	opts := SSFLOptions{KeepRatio: 0.5}
	global := models.Build(ssflSpec, seed)
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8, Noise: 0.25}, 64, seed+1, seed+2)
	f := &ssflFixture{agg: NewSSFLAggregator(global, opts, cfg)}
	for i := 0; i < cfg.NumClients; i++ {
		idx := make([]int, 24)
		for j := range idx {
			idx[j] = i*24 + j
		}
		sub := ds.Subset(idx)
		tr, va := sub.Split(0.8)
		c := &Client{ID: i, Train: tr, Val: va, Model: models.Build(ssflSpec, seed)}
		f.trainers = append(f.trainers, NewSSFLTrainer(c, opts, cfg))
		f.sizes = append(f.sizes, tr.Len())
	}
	return f
}

// round drives one full communication round and returns the broadcast
// and per-client upload payload sizes.
func (f *ssflFixture) round(t *testing.T, round int) (down int, ups []int) {
	t.Helper()
	payload := f.agg.Broadcast(round)
	down = len(payload)
	for i, tr := range f.trainers {
		up := tr.LocalUpdate(round, payload)
		if up == nil {
			t.Fatalf("round %d: client %d sat out", round, i)
		}
		ups = append(ups, len(up))
		f.agg.Collect(round, uint32(i), f.sizes[i], up)
	}
	f.agg.FinishRound(round)
	return down, ups
}

// TestSSFLProtocolPhases drives a real (tiny) federation end to end and
// checks every phase transition of the wire protocol: dense agreement,
// one index-bearing sparse frame, then values-only in both directions —
// and that the global complement stays exactly zero through training.
func TestSSFLProtocolPhases(t *testing.T) {
	f := newSSFLFixture(7)

	if kind := comm.KindOf(f.agg.Broadcast(0)); kind != comm.FrameDense {
		t.Fatalf("agreement broadcast kind = %v, want dense", kind)
	}
	down0, _ := f.round(t, 0)
	if f.agg.Selection() == nil {
		t.Fatal("no mask after agreement round")
	}

	// Round 1: the index ranges travel, exactly once.
	b1 := f.agg.Broadcast(1)
	if kind := comm.KindOf(b1); kind != comm.FrameSparse {
		t.Fatalf("round-1 broadcast kind = %v, want full sparse", kind)
	}
	_, ups1 := f.round(t, 1)

	// Round 2+: values-only both directions, strictly smaller than the
	// dense agreement broadcast and the index-bearing frame.
	b2 := f.agg.Broadcast(2)
	if kind := comm.KindOf(b2); kind != comm.FrameSparseVals {
		t.Fatalf("round-2 broadcast kind = %v, want values-only", kind)
	}
	down2, ups2 := f.round(t, 2)
	if down2 >= down0 {
		t.Fatalf("values-only downlink %d not smaller than dense %d", down2, down0)
	}
	if down2 >= len(b1) {
		t.Fatalf("values-only downlink %d not smaller than index-bearing frame %d", down2, len(b1))
	}
	for i := range ups2 {
		if ups2[i] != comm.SparseValsLen(f.agg.keptN) {
			t.Fatalf("uplink %d: %d bytes, want exact values-only frame %d",
				i, ups2[i], comm.SparseValsLen(f.agg.keptN))
		}
		if ups1[i] != ups2[i] {
			t.Fatalf("uplink after agreement must be values-only from the first sparse round")
		}
	}
	if d := f.agg.Dropped(); d != 0 {
		t.Fatalf("dropped %d uploads in a clean run", d)
	}

	// The complement of the agreed mask stays exactly zero in the global
	// state: the mask is data, not arithmetic.
	state := f.agg.Global.State(models.ScopeEncoder)
	comp := comm.ComplementRanges(f.agg.ranges, len(state))
	for _, r := range comp {
		for _, v := range state[r.Start : r.Start+r.Len] {
			if v != 0 {
				t.Fatal("pruned entry drifted from zero after sparse rounds")
			}
		}
	}

	// Finish: clients reconstruct the exact global encoder from the full
	// sparse final frame.
	final := f.agg.Final()
	if kind := comm.KindOf(final); kind != comm.FrameSparse {
		t.Fatalf("final payload kind = %v, want sparse", kind)
	}
	f.trainers[0].Finish(final)
	cState := f.trainers[0].Client.Model.State(models.ScopeEncoder)
	for j := range state {
		if math.Float32bits(cState[j]) != math.Float32bits(state[j]) {
			t.Fatalf("final install differs at %d", j)
		}
	}
}

// TestSSFLValuesOnlyBeforeRangesSitsOut: a client that never saw the
// index-bearing frame cannot use a values-only broadcast and must sit
// the round out instead of guessing.
func TestSSFLValuesOnlyBeforeRangesSitsOut(t *testing.T) {
	f := newSSFLFixture(9)
	tr := f.trainers[0]
	if up := tr.LocalUpdate(2, comm.EncodeSparseValsInto(nil, make([]float32, 10))); up != nil {
		t.Fatal("values-only frame without ranges must be unusable")
	}
}

// TestSSFLDeterministicAcrossGOMAXPROCS: two full federations from the
// same seed must produce bitwise-identical global models at GOMAXPROCS 1
// and N — mask agreement, packed reduce, and mask-static local training
// included.
func TestSSFLDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) []float32 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		f := newSSFLFixture(31)
		for r := 0; r < 3; r++ {
			f.round(t, r)
		}
		return f.agg.Global.State(models.ScopeEncoder)
	}
	s1 := run(1)
	for _, procs := range []int{2, 4} {
		sN := run(procs)
		for j := range s1 {
			if math.Float32bits(s1[j]) != math.Float32bits(sN[j]) {
				t.Fatalf("state[%d] differs between GOMAXPROCS 1 and %d: %x vs %x", j, procs,
					math.Float32bits(s1[j]), math.Float32bits(sN[j]))
			}
		}
	}
}
