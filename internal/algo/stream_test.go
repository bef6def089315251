package algo

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
)

// The streaming contract under test: whatever order uploads arrive in —
// and whatever GOMAXPROCS the folds run at — the round's reduction is
// bitwise identical to the serial StreamFoldRef ground truth, because
// the cursor/staging engine replays arrivals in canonical ascending
// client order. Every aggregator family gets the same permutation
// driver; the fixtures only differ in payload encoding and reference.

// streamFixture is one aggregator wired with a round's worth of uploads
// and a bitwise check against the serial reference.
type streamFixture struct {
	agg      StreamingAggregator
	round    int
	ids      []uint32
	sizes    []int
	payloads [][]byte
	check    func(t *testing.T)
	// ref (dense fixtures only) builds the bitwise check for an arbitrary
	// fold sequence — the serial reference replayed over exactly those
	// uploads, with those train sizes, in that order.
	ref func(seq []foldStep) func(t *testing.T)
}

// foldStep is one fold of a sequence: which of the fixture's uploads,
// and the train size it was collected with.
type foldStep struct{ up, size int }

// canonicalSeq is the fold sequence of a clean round: every upload once,
// ascending client ID, its own train size.
func canonicalSeq(sizes []int) []foldStep {
	seq := make([]foldStep, len(sizes))
	for i, sz := range sizes {
		seq[i] = foldStep{up: i, size: sz}
	}
	return seq
}

// bitEq fails the test at the first float32 that differs bitwise.
func bitEq(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s[%d] differs bitwise: %x vs %x", label, j,
				math.Float32bits(got[j]), math.Float32bits(want[j]))
		}
	}
}

var streamIDs = []uint32{3, 11, 12, 20, 41, 57}

func streamSizes(n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 50 + 10*i
	}
	return sizes
}

func randStates(rng *rand.Rand, k, n int) [][]float32 {
	states := make([][]float32, k)
	for i := range states {
		st := make([]float32, n)
		for j := range st {
			st[j] = float32(rng.NormFloat64())
		}
		states[i] = st
	}
	return states
}

// denseSpec is the dense fixtures' model: ≈12k state values, several
// fold blocks wide, and small enough that the mode × permutation ×
// GOMAXPROCS matrix builds hundreds of fixtures in a second or two.
var denseSpec = models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8, Width: 0.25}

func fedavgFixture(seed int64) *streamFixture { return fedavgFixtureEnc(seed, comm.EncodeDense) }

// fedavgFixtureEnc is the FedAvg fixture over a chosen wire precision;
// the reference folds what the payloads decode to, so a binary16 fixture
// checks the f16 fold path against the f16 decoder.
// encodeDenseF16 is the one-argument half-precision dense encoder.
func encodeDenseF16(v []float32) []byte { return comm.EncodeDenseF16Into(nil, v) }

func fedavgFixtureEnc(seed int64, enc func([]float32) []byte) *streamFixture {
	global := models.Build(denseSpec, 7)
	agg := NewFedAvgAggregator(global, Config{NumClients: 64})
	n := global.StateLen(models.ScopeAll)
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	states := randStates(rng, k, n)
	sizes := streamSizes(k)
	payloads := make([][]byte, k)
	for i := range states {
		payloads[i] = enc(states[i])
		states[i], _ = comm.DecodeDenseAnyInto(nil, payloads[i])
	}
	ref := func(seq []foldStep) func(t *testing.T) {
		sts := make([][]float32, len(seq))
		ws := make([]float64, len(seq))
		for i, st := range seq {
			sts[i], ws[i] = states[st.up], float64(st.size)
		}
		want := StreamFoldRefFedAvg(sts, ws)
		return func(t *testing.T) { bitEq(t, "state", global.State(models.ScopeAll), want) }
	}
	return &streamFixture{
		agg: agg, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: ref(canonicalSeq(sizes)), ref: ref,
	}
}

func fednovaFixture(seed int64) *streamFixture {
	global := models.Build(denseSpec, 7)
	agg := NewFedNovaAggregator(global, Config{NumClients: 64})
	n := global.StateLen(models.ScopeAll)
	nVel := nn.ParamCount(global.Params())
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	ds := randStates(rng, k, n)
	vs := randStates(rng, k, nVel)
	sizes := streamSizes(k)
	taus := make([]float64, k)
	payloads := make([][]byte, k)
	for i := range ds {
		steps := uint32(2 + i)
		taus[i] = float64(steps)
		var sb [4]byte
		binary.LittleEndian.PutUint32(sb[:], steps)
		payloads[i] = comm.JoinPayloads(comm.EncodeDense(ds[i]), comm.EncodeDense(vs[i]), sb[:])
	}
	before := global.State(models.ScopeAll)
	ref := func(seq []foldStep) func(t *testing.T) {
		d := make([][]float32, len(seq))
		v := make([][]float32, len(seq))
		tau := make([]float64, len(seq))
		ws := make([]float64, len(seq))
		for i, st := range seq {
			d[i], v[i], tau[i], ws[i] = ds[st.up], vs[st.up], taus[st.up], float64(st.size)
		}
		wantState, wantVel := StreamFoldRefFedNova(before, d, v, tau, ws)
		return func(t *testing.T) {
			bitEq(t, "state", global.State(models.ScopeAll), wantState)
			bitEq(t, "velocity", agg.velocity, wantVel)
		}
	}
	return &streamFixture{
		agg: agg, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: ref(canonicalSeq(sizes)), ref: ref,
	}
}

func scaffoldFixture(seed int64) *streamFixture {
	global := models.Build(denseSpec, 7)
	agg := NewSCAFFOLDAggregator(global, Config{NumClients: 64})
	n := global.StateLen(models.ScopeAll)
	nCtrl := nn.ParamCount(global.Params())
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	dWs := randStates(rng, k, n)
	dCs := randStates(rng, k, nCtrl)
	sizes := streamSizes(k)
	payloads := make([][]byte, k)
	for i := range dWs {
		payloads[i] = comm.JoinPayloads(comm.EncodeDense(dWs[i]), comm.EncodeDense(dCs[i]))
	}
	before := global.State(models.ScopeAll)
	cBefore := append([]float32(nil), agg.c...)
	ref := func(seq []foldStep) func(t *testing.T) {
		dW := make([][]float32, len(seq))
		dC := make([][]float32, len(seq))
		for i, st := range seq {
			dW[i], dC[i] = dWs[st.up], dCs[st.up]
		}
		wantState, wantC := StreamFoldRefSCAFFOLD(before, cBefore, dW, dC, 64)
		return func(t *testing.T) {
			bitEq(t, "state", global.State(models.ScopeAll), wantState)
			bitEq(t, "c", agg.c, wantC)
		}
	}
	return &streamFixture{
		agg: agg, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: ref(canonicalSeq(sizes)), ref: ref,
	}
}

func spatlFixture(seed int64) *streamFixture {
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	global := models.Build(spec, 7)
	const clients = 64
	agg := NewSPATLAggregator(global, SPATLOptions{}, Config{NumClients: clients})
	n := global.StateLen(models.ScopeEncoder)
	nCtrl := nn.ParamCount(global.EncoderParams())
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	sizes := streamSizes(k)
	dWs := make([]*comm.Sparse, k)
	dCs := make([]*comm.Sparse, k)
	payloads := make([][]byte, k)
	for i := range dWs {
		dWs[i] = synthSparse(rng, n)
		dCs[i] = synthSparse(rng, nCtrl)
		payloads[i] = comm.JoinPayloads(comm.EncodeSparse(dWs[i]), comm.EncodeSparse(dCs[i]))
	}
	wantState, wantC := StreamFoldRefSPATL(global.State(models.ScopeEncoder),
		append([]float32(nil), agg.c...), dWs, dCs, clients)
	return &streamFixture{
		agg: agg, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: func(t *testing.T) {
			bitEq(t, "state", global.State(models.ScopeEncoder), wantState)
			bitEq(t, "c", agg.c, wantC)
		},
	}
}

// ssflScoresFixture permutes the mask-agreement round: the permuted
// instance's agreed state and salient ranges must match a reference
// instance fed in ascending order (whose score fold matches
// StreamFoldRefSSFLScores by construction of agreeMask).
func ssflScoresFixture(seed int64) *streamFixture {
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	sizes := streamSizes(k)
	build := func() (*models.SplitModel, *SSFLAggregator) {
		global := models.Build(spec, 7)
		return global, NewSSFLAggregator(global, SSFLOptions{}, Config{NumClients: 64})
	}
	refGlobal, refAgg := build()
	scoreLen := ssflScoreLen(refGlobal)
	scores := make([][]float32, k)
	payloads := make([][]byte, k)
	for i := range scores {
		sc := make([]float32, scoreLen)
		for j := range sc {
			sc[j] = float32(rng.Float64() + 0.01)
		}
		scores[i] = sc
		payloads[i] = comm.EncodeDense(sc)
	}
	refAgg.BeginRound(0, streamIDs)
	for i := range streamIDs {
		refAgg.Collect(0, streamIDs[i], sizes[i], payloads[i])
	}
	refAgg.FinishRound(0)
	wantState := refGlobal.State(models.ScopeEncoder)

	global, agg := build()
	return &streamFixture{
		agg: agg, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: func(t *testing.T) {
			if len(agg.ranges) != len(refAgg.ranges) {
				t.Fatalf("agreed ranges: %d vs %d", len(agg.ranges), len(refAgg.ranges))
			}
			for i := range agg.ranges {
				if agg.ranges[i] != refAgg.ranges[i] {
					t.Fatalf("range %d: %+v vs %+v", i, agg.ranges[i], refAgg.ranges[i])
				}
			}
			bitEq(t, "state", global.State(models.ScopeEncoder), wantState)
		},
	}
}

// ssflPackedFixture permutes a mask-static values-only round, checked
// against the retained dense reference SSFLReduceReference.
func ssflPackedFixture(seed int64) *streamFixture {
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	global := models.Build(spec, 7)
	agg := NewSSFLAggregator(global, SSFLOptions{}, Config{NumClients: 64})
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	sizes := streamSizes(k)

	// Agreement round first (in order): fixes the mask and keptN.
	scoreLen := ssflScoreLen(global)
	agg.BeginRound(0, streamIDs)
	for i := range streamIDs {
		sc := make([]float32, scoreLen)
		for j := range sc {
			sc[j] = float32(rng.Float64() + 0.01)
		}
		agg.Collect(0, streamIDs[i], sizes[i], comm.EncodeDense(sc))
	}
	agg.FinishRound(0)

	stateAfter := global.State(models.ScopeEncoder)
	packed := randStates(rng, k, agg.keptN)
	weights := make([]float64, k)
	payloads := make([][]byte, k)
	for i := range packed {
		weights[i] = float64(sizes[i])
		payloads[i] = comm.EncodeSparseValsInto(nil, packed[i])
	}
	want := SSFLReduceReference(stateAfter, packed, weights, agg.ranges)
	return &streamFixture{
		agg: agg, round: 1, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: func(t *testing.T) { bitEq(t, "state", global.State(models.ScopeEncoder), want) },
	}
}

var streamCases = []struct {
	name string
	make func(seed int64) *streamFixture
}{
	{"fedavg", fedavgFixture},
	{"fednova", fednovaFixture},
	{"scaffold", scaffoldFixture},
	{"spatl", spatlFixture},
	{"ssfl-scores", ssflScoresFixture},
	{"ssfl-packed", ssflPackedFixture},
}

// streamProcs are the GOMAXPROCS values every bitwise suite here runs
// at — explicit, so the multi-worker paths are exercised whatever the
// box's core count.
var streamProcs = []int{1, 2, 4}

// streamPerms yields the arrival orders under test: identity, reverse,
// and seeded shuffles.
func streamPerms(n, extra int) [][]int {
	id := make([]int, n)
	rev := make([]int, n)
	for i := range id {
		id[i] = i
		rev[i] = n - 1 - i
	}
	perms := [][]int{id, rev}
	for s := 0; s < extra; s++ {
		rng := rand.New(rand.NewSource(int64(7919 + s)))
		perms = append(perms, rng.Perm(n))
	}
	return perms
}

// TestStreamPermutationMatchesSerialRef drives every aggregator family
// through every arrival permutation at GOMAXPROCS 1, 2 and 4 and
// demands bitwise identity with the serial StreamFoldRef ground truth.
func TestStreamPermutationMatchesSerialRef(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range streamProcs {
		runtime.GOMAXPROCS(gmp)
		for _, tc := range streamCases {
			t.Run(fmt.Sprintf("%s/gomaxprocs=%d", tc.name, gmp), func(t *testing.T) {
				for pi, perm := range streamPerms(len(streamIDs), 6) {
					fx := tc.make(1234) // same data for every permutation
					fx.agg.BeginRound(fx.round, fx.ids)
					for _, p := range perm {
						fx.agg.Collect(fx.round, fx.ids[p], fx.sizes[p], fx.payloads[p])
					}
					fx.agg.FinishRound(fx.round)
					fx.check(t)
					if t.Failed() {
						t.Fatalf("permutation %d (%v) diverged from the serial reference", pi, perm)
					}
				}
			})
		}
	}
}

// TestStreamPermutationWithAbsentees drops two of six clients — one
// announced via MarkAbsent mid-round, one that silently never delivers —
// and permutes the survivors. The fold must equal the serial reference
// over the delivered subset, whichever way the absences were learned.
func TestStreamPermutationWithAbsentees(t *testing.T) {
	const absentMarked, absentSilent = 1, 4 // positions in streamIDs
	for pi, perm := range streamPerms(len(streamIDs), 6) {
		fx := fedavgFixtureSubset(1234, absentMarked, absentSilent)
		fx.agg.BeginRound(fx.round, fx.ids)
		delivered := 0
		for _, p := range perm {
			if p == absentSilent {
				continue
			}
			if p == absentMarked {
				fx.agg.MarkAbsent(fx.round, fx.ids[p])
				continue
			}
			fx.agg.Collect(fx.round, fx.ids[p], fx.sizes[p], fx.payloads[p])
			delivered++
		}
		fx.agg.FinishRound(fx.round)
		fx.check(t)
		if t.Failed() {
			t.Fatalf("permutation %d (%v) with absentees diverged", pi, perm)
		}
	}
}

// fedavgFixtureSubset is fedavgFixture with the reference computed over
// only the delivered clients.
func fedavgFixtureSubset(seed int64, absent ...int) *streamFixture {
	fx := fedavgFixture(seed)
	var seq []foldStep
	for _, st := range canonicalSeq(fx.sizes) {
		if !slices.Contains(absent, st.up) {
			seq = append(seq, st)
		}
	}
	fx.check = fx.ref(seq)
	return fx
}

// TestStreamDuplicateAndUnknownFoldAtArrival pins the extras semantics:
// a duplicate of an already-resolved position and an upload from a
// client outside the selection both fold at their arrival position —
// the buffered path's append semantics.
func TestStreamDuplicateAndUnknownFoldAtArrival(t *testing.T) {
	fx := fedavgFixture(99)
	agg := fx.agg.(*FedAvgAggregator)
	k := len(fx.ids)
	states := make([][]float32, 0, k+2)
	weights := make([]float64, 0, k+2)
	fx.agg.BeginRound(0, fx.ids)
	for i := range fx.ids {
		fx.agg.Collect(0, fx.ids[i], fx.sizes[i], fx.payloads[i])
		st, _ := comm.DecodeDenseAnyInto(nil, fx.payloads[i])
		states = append(states, st)
		weights = append(weights, float64(fx.sizes[i]))
	}
	// Duplicate of the first client, then a never-selected client: both
	// fold on arrival, i.e. appended to the canonical chain.
	for _, extra := range []struct {
		id   uint32
		pos  int
		size int
	}{{fx.ids[0], 0, 77}, {9999, 2, 33}} {
		fx.agg.Collect(0, extra.id, extra.size, fx.payloads[extra.pos])
		st, _ := comm.DecodeDenseAnyInto(nil, fx.payloads[extra.pos])
		states = append(states, st)
		weights = append(weights, float64(extra.size))
	}
	fx.agg.FinishRound(0)
	want := StreamFoldRefFedAvg(states, weights)
	bitEq(t, "state", agg.Global.State(models.ScopeAll), want)
}

// TestStreamLegacyArrivalOrder drives an aggregator with no selection
// announced: every upload is then an extra, and extras fold where they
// arrive — arrival order IS the fold order.
func TestStreamLegacyArrivalOrder(t *testing.T) {
	fx := fedavgFixture(7)
	agg := fx.agg.(*FedAvgAggregator)
	states := make([][]float32, len(fx.ids))
	weights := make([]float64, len(fx.ids))
	for i := range fx.ids {
		fx.agg.Collect(0, fx.ids[i], fx.sizes[i], fx.payloads[i])
		states[i], _ = comm.DecodeDenseAnyInto(nil, fx.payloads[i])
		weights[i] = float64(fx.sizes[i])
	}
	fx.agg.FinishRound(0)
	bitEq(t, "state", agg.Global.State(models.ScopeAll), StreamFoldRefFedAvg(states, weights))
}

// TestStreamStagingBoundAtScale feeds 10k clients in exact reverse order
// — the worst case for the cursor — under a hard staging limit and
// checks the bound held: peak staged never exceeds the limit, overflow
// evictions were counted, and the round state fully resets.
func TestStreamStagingBoundAtScale(t *testing.T) {
	spec := models.Spec{Arch: "mlp", Classes: 2, InC: 1, H: 4, W: 4, Width: 0.25}
	global := models.Build(spec, 3)
	agg := NewFedAvgAggregator(global, Config{NumClients: 10000})
	const limit = 256
	agg.SetStagingLimit(limit)
	n := global.StateLen(models.ScopeAll)
	st := make([]float32, n)
	for j := range st {
		st[j] = float32(j%7) - 3
	}
	payload := comm.EncodeDense(st) // decode copies, so one payload serves all
	ids := make([]uint32, 10000)
	for i := range ids {
		ids[i] = uint32(i)
	}
	agg.BeginRound(0, ids)
	for i := len(ids) - 1; i >= 0; i-- {
		agg.Collect(0, ids[i], 100, payload)
	}
	agg.FinishRound(0)
	if peak := agg.StagingPeak(); peak > limit {
		t.Fatalf("staging peak %d exceeds limit %d", peak, limit)
	}
	if agg.StagingOverflow() == 0 {
		t.Fatal("reverse-order feed at 10k clients should have overflowed a 256-entry pool")
	}
	if len(agg.staged) != 0 || len(agg.order) != 0 {
		t.Fatalf("round state not reset: %d staged, %d order", len(agg.staged), len(agg.order))
	}
}

// TestStreamStagingLosslessDefault checks the default bound (selection
// size): a full reverse-order round stages everything, evicts nothing,
// and still reduces bitwise identically to the serial reference.
func TestStreamStagingLosslessDefault(t *testing.T) {
	spec := models.Spec{Arch: "mlp", Classes: 2, InC: 1, H: 4, W: 4, Width: 0.25}
	global := models.Build(spec, 3)
	const k = 512
	agg := NewFedAvgAggregator(global, Config{NumClients: k})
	n := global.StateLen(models.ScopeAll)
	rng := rand.New(rand.NewSource(5))
	states := randStates(rng, k, n)
	weights := make([]float64, k)
	ids := make([]uint32, k)
	for i := range ids {
		ids[i] = uint32(i)
		weights[i] = float64(10 + i%90)
	}
	agg.BeginRound(0, ids)
	for i := k - 1; i >= 0; i-- {
		agg.Collect(0, ids[i], int(weights[i]), comm.EncodeDense(states[i]))
	}
	agg.FinishRound(0)
	if ov := agg.StagingOverflow(); ov != 0 {
		t.Fatalf("default bound evicted %d uploads", ov)
	}
	if peak := agg.StagingPeak(); peak != k-1 {
		t.Fatalf("reverse feed should stage k-1 = %d uploads, peaked at %d", k-1, peak)
	}
	bitEq(t, "state", global.State(models.ScopeAll), StreamFoldRefFedAvg(states, weights))
}

// TestStreamRaceHammer randomizes everything the transports randomize —
// arrival order via racing producer goroutines, staging pressure via a
// per-round limit — across sequential rounds. Rounds with the lossless
// default bound must stay bitwise identical to the serial reference;
// bounded rounds must respect the bound. Run under -race by the hot
// battery (scripts/verify.sh --hot).
func TestStreamRaceHammer(t *testing.T) {
	spec := models.Spec{Arch: "mlp", Classes: 2, InC: 1, H: 4, W: 4, Width: 0.25}
	global := models.Build(spec, 11)
	const k = 96
	agg := NewFedAvgAggregator(global, Config{NumClients: k})
	n := global.StateLen(models.ScopeAll)
	ids := make([]uint32, k)
	for i := range ids {
		ids[i] = uint32(i * 3)
	}
	type msg struct {
		pos     int
		payload []byte
	}
	for round := 0; round < 6; round++ {
		rng := rand.New(rand.NewSource(int64(100 + round)))
		states := randStates(rng, k, n)
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = float64(20 + i%60)
		}
		limit := 0 // lossless default on even rounds
		if round%2 == 1 {
			limit = 1 + rng.Intn(k/4) // random staging pressure
		}
		agg.SetStagingLimit(limit)
		agg.BeginRound(round, ids)

		// Racing producers: each encodes its strided share of the uploads
		// concurrently; the consumer ingests in whatever order they land.
		out := make(chan msg, k)
		const producers = 8
		for w := 0; w < producers; w++ {
			go func(w int) {
				for pos := w; pos < k; pos += producers {
					out <- msg{pos: pos, payload: comm.EncodeDense(states[pos])}
				}
			}(w)
		}
		for i := 0; i < k; i++ {
			m := <-out
			agg.Collect(round, ids[m.pos], int(weights[m.pos]), m.payload)
		}
		agg.FinishRound(round)
		if limit == 0 {
			bitEq(t, "state", global.State(models.ScopeAll), StreamFoldRefFedAvg(states, weights))
		} else if peak := agg.StagingPeak(); peak > int64(k) {
			t.Fatalf("round %d: staging peak %d exceeds selection size", round, peak)
		}
	}
}

// TestStreamBatchCollectMatchesSerialRef routes the same round through
// CollectBatch — the one-call path every shard transport uses — and
// demands the identical bitwise result.
func TestStreamBatchCollectMatchesSerialRef(t *testing.T) {
	fx := fedavgFixture(42)
	agg := fx.agg.(*FedAvgAggregator)
	states := make([][]float32, len(fx.ids))
	weights := make([]float64, len(fx.ids))
	ups := make([]Upload, len(fx.ids))
	for i := range fx.ids {
		states[i], _ = comm.DecodeDenseAnyInto(nil, fx.payloads[i])
		weights[i] = float64(fx.sizes[i])
		// Reverse the batch order: the cursor must reorder it.
		j := len(fx.ids) - 1 - i
		ups[i] = Upload{Client: fx.ids[j], TrainSize: fx.sizes[j], Payload: fx.payloads[j]}
	}
	fx.agg.BeginRound(0, fx.ids)
	agg.CollectBatch(0, ups)
	fx.agg.FinishRound(0)
	bitEq(t, "state", agg.Global.State(models.ScopeAll), StreamFoldRefFedAvg(states, weights))
}

// foldOracle is the stream engine's contract restated as a model small
// enough to read: it tracks only which canonical positions are
// resolved and where the cursor is, and records the sequence in which
// uploads fold. The dense aggregators, driven through any mix of entry
// points, must reduce bitwise as the serial reference replayed over
// that sequence.
type foldOracle struct {
	ids     []uint32
	arrived []bool
	parked  map[int]foldStep
	cursor  int
	seq     []foldStep
}

func newFoldOracle(ids []uint32) *foldOracle {
	return &foldOracle{ids: ids, arrived: make([]bool, len(ids)), parked: map[int]foldStep{}}
}

func (o *foldOracle) advance() {
	for o.cursor < len(o.ids) && o.arrived[o.cursor] {
		if st, ok := o.parked[o.cursor]; ok {
			o.seq = append(o.seq, st)
			delete(o.parked, o.cursor)
		}
		o.cursor++
	}
}

// collect models Collect (and each entry of a CollectBatch): duplicates
// and unselected clients fold where they arrive, the rest at their
// canonical position.
func (o *foldOracle) collect(client uint32, st foldStep) {
	pos := slices.Index(o.ids, client)
	if pos < 0 || o.arrived[pos] {
		o.seq = append(o.seq, st)
		return
	}
	o.arrived[pos] = true
	o.parked[pos] = st
	o.advance()
}

// late models CollectLate: folds at delivery, outside the cursor.
func (o *foldOracle) late(st foldStep) { o.seq = append(o.seq, st) }

// absent models MarkAbsent and a rejected upload from a selected client.
func (o *foldOracle) absent(client uint32) {
	if pos := slices.Index(o.ids, client); pos >= 0 && !o.arrived[pos] {
		o.arrived[pos] = true
		o.advance()
	}
}

// finish models FinishRound's drain: whatever is still parked, in
// position order.
func (o *foldOracle) finish() []foldStep {
	for pos := range o.ids {
		if st, ok := o.parked[pos]; ok {
			o.seq = append(o.seq, st)
		}
	}
	return o.seq
}

var denseCases = []struct {
	name string
	make func(seed int64) *streamFixture
}{
	{"fedavg", fedavgFixture},
	{"fedavg-f16", func(seed int64) *streamFixture { return fedavgFixtureEnc(seed, encodeDenseF16) }},
	{"fednova", fednovaFixture},
	{"scaffold", scaffoldFixture},
}

// denseModes are the ways a round's uploads can reach a dense
// aggregator. Each drives the aggregator and the oracle through the same
// arrivals, in the order perm gives.
var denseModes = []struct {
	name  string
	drive func(fx *streamFixture, o *foldOracle, perm []int)
}{
	{"collect", func(fx *streamFixture, o *foldOracle, perm []int) {
		for _, p := range perm {
			fx.agg.Collect(0, fx.ids[p], fx.sizes[p], fx.payloads[p])
			o.collect(fx.ids[p], foldStep{p, fx.sizes[p]})
		}
	}},
	{"batch", func(fx *streamFixture, o *foldOracle, perm []int) {
		ups := make([]Upload, len(perm))
		for i, p := range perm {
			ups[i] = Upload{Client: fx.ids[p], TrainSize: fx.sizes[p], Payload: fx.payloads[p]}
			o.collect(fx.ids[p], foldStep{p, fx.sizes[p]})
		}
		fx.agg.(BatchCollector).CollectBatch(0, ups)
	}},
	// A straggler folds first, half the round arrives as a batch, a
	// second straggler — from a client also selected this round — lands
	// mid-round, and the rest arrive one at a time.
	{"mixed-late", func(fx *streamFixture, o *foldOracle, perm []int) {
		fx.agg.CollectLate(0, 999, 42, fx.payloads[2])
		o.late(foldStep{2, 42})
		half := len(perm) / 2
		ups := make([]Upload, half)
		for i, p := range perm[:half] {
			ups[i] = Upload{Client: fx.ids[p], TrainSize: fx.sizes[p], Payload: fx.payloads[p]}
			o.collect(fx.ids[p], foldStep{p, fx.sizes[p]})
		}
		fx.agg.(BatchCollector).CollectBatch(0, ups)
		fx.agg.CollectLate(0, fx.ids[0], 17, fx.payloads[4])
		o.late(foldStep{4, 17})
		for _, p := range perm[half:] {
			fx.agg.Collect(0, fx.ids[p], fx.sizes[p], fx.payloads[p])
			o.collect(fx.ids[p], foldStep{p, fx.sizes[p]})
		}
	}},
	// One batch carrying, besides the round, a duplicate of its own
	// second entry and an upload from a client nobody selected.
	{"batch-extras", func(fx *streamFixture, o *foldOracle, perm []int) {
		var ups []Upload
		add := func(client uint32, st foldStep) {
			ups = append(ups, Upload{Client: client, TrainSize: st.size, Payload: fx.payloads[st.up]})
			o.collect(client, st)
		}
		for i, p := range perm {
			add(fx.ids[p], foldStep{p, fx.sizes[p]})
			if i == 2 {
				add(fx.ids[perm[1]], foldStep{perm[1], 77}) // duplicate
				add(9999, foldStep{3, 33})                  // unselected
			}
		}
		fx.agg.(BatchCollector).CollectBatch(0, ups)
	}},
}

// TestDenseRunFoldMatchesSerialRef is the run fold's bitwise suite: the
// three dense aggregators (FedAvg at both wire precisions) × arrival
// permutations × every delivery mode × GOMAXPROCS 1, 2 and 4, each
// checked against the serial reference replayed over the oracle's fold
// sequence.
func TestDenseRunFoldMatchesSerialRef(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range streamProcs {
		runtime.GOMAXPROCS(gmp)
		for _, tc := range denseCases {
			for _, mode := range denseModes {
				t.Run(fmt.Sprintf("%s/%s/gomaxprocs=%d", tc.name, mode.name, gmp), func(t *testing.T) {
					for pi, perm := range streamPerms(len(streamIDs), 6) {
						fx := tc.make(1234)
						o := newFoldOracle(fx.ids)
						fx.agg.BeginRound(0, fx.ids)
						mode.drive(fx, o, perm)
						fx.agg.FinishRound(0)
						fx.ref(o.finish())(t)
						if t.Failed() {
							t.Fatalf("permutation %d (%v) diverged from the serial reference", pi, perm)
						}
					}
				})
			}
		}
	}
}

// malformedDense are the shapes of a dense upload the header check must
// refuse, derived from a well-formed payload of the same aggregator.
func malformedDense(good []byte) [][]byte {
	flip := append([]byte(nil), good...)
	flip[len(flip)/2] = 0 // a part-length or magic byte, or a count byte
	for i := range flip[:12] {
		flip[i] ^= 0xA5
	}
	return [][]byte{
		nil,
		good[:len(good)-1],
		good[:len(good)/2],
		append(append([]byte(nil), good...), 0),
		flip,
	}
}

// TestDenseMalformedMidRunCostsNothing is the regression test for the
// pooled-buffer leak: a rejected dense upload used to take a model-sized
// buffer from the pool and drop it. A malformed entry in the middle of a
// batch must be counted, must not stall the cursor (its neighbours fold
// in the same run, nothing parks), must leave the result equal to the
// round without it — and the rejection itself must not allocate, which
// on a pool it never returns to is what taking a buffer would do.
func TestDenseMalformedMidRunCostsNothing(t *testing.T) {
	for _, tc := range denseCases {
		t.Run(tc.name, func(t *testing.T) {
			const victim = 2
			for mi, bad := range malformedDense(tc.make(1).payloads[victim]) {
				fx := tc.make(1234)
				ups := make([]Upload, len(fx.ids))
				for i := range fx.ids {
					ups[i] = Upload{Client: fx.ids[i], TrainSize: fx.sizes[i], Payload: fx.payloads[i]}
				}
				ups[victim].Payload = bad
				agg := fx.agg.(interface {
					BatchCollector
					Dropped() int64
					StagingPeak() int64
				})
				fx.agg.BeginRound(0, fx.ids)
				agg.CollectBatch(0, ups)
				if d := agg.Dropped(); d != 1 {
					t.Fatalf("malformed %d: Dropped() = %d, want 1", mi, d)
				}
				if p := agg.StagingPeak(); p != 0 {
					t.Fatalf("malformed %d: %d uploads parked behind the rejected one", mi, p)
				}
				fx.agg.FinishRound(0)
				seq := slices.Delete(canonicalSeq(fx.sizes), victim, victim+1)
				fx.ref(seq)(t)

				// The rejection alone, at the cursor of a fresh round.
				fx.agg.BeginRound(1, fx.ids)
				if n := testing.AllocsPerRun(20, func() {
					fx.agg.Collect(1, fx.ids[0], fx.sizes[0], bad)
				}); n != 0 {
					t.Fatalf("malformed %d: a rejected upload allocated %v times", mi, n)
				}
				fx.agg.FinishRound(1)
			}
		})
	}
}

// TestStreamRefusedUploadFreesCursor: a refused upload from the client
// at the cursor resolves that client's position, on every aggregator.
// Selection {0, 2, 5, 7}; client 0 sends garbage, then 2, 5 and 7 send
// well-formed uploads in order. Nothing may park behind the refusal,
// and the round must end bitwise as one where client 0 was marked
// absent — compared on the next broadcast (state and control variates)
// and the final payload.
func TestStreamRefusedUploadFreesCursor(t *testing.T) {
	ids := []uint32{0, 2, 5, 7}
	garbage := []byte{0xFF, 0x01, 0x02}
	for _, tc := range streamCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(refuse bool) (next, final []byte) {
				fx := tc.make(77)
				agg := fx.agg.(interface {
					Aggregator
					Dropped() int64
					StagingPeak() int64
				})
				agg.BeginRound(fx.round, ids)
				if refuse {
					agg.Collect(fx.round, ids[0], fx.sizes[0], garbage)
				} else {
					agg.MarkAbsent(fx.round, ids[0])
				}
				for i := 1; i < len(ids); i++ {
					agg.Collect(fx.round, ids[i], fx.sizes[i], fx.payloads[i])
				}
				if refuse {
					if d := agg.Dropped(); d != 1 {
						t.Fatalf("Dropped() = %d, want 1", d)
					}
					if p := agg.StagingPeak(); p != 0 {
						t.Fatalf("%d uploads parked behind the refused one", p)
					}
				}
				agg.FinishRound(fx.round)
				next = append([]byte(nil), agg.Broadcast(fx.round+1)...)
				return next, append([]byte(nil), agg.Final()...)
			}
			wantNext, wantFinal := run(false)
			gotNext, gotFinal := run(true)
			if !slices.Equal(gotNext, wantNext) || !slices.Equal(gotFinal, wantFinal) {
				t.Fatal("the round with a refused upload differs from the round with it absent")
			}
		})
	}
}

// TestFedAvgCollectAtCursorDoesNotAllocate guards the steady state of
// the dense path: with telemetry off, an in-order Collect — header
// check, fold from the caller's bytes, cursor advance — allocates
// nothing, on a small and a conv model. (AllocsPerRun measures at
// GOMAXPROCS 1; TestFedAvgMassiveFoldsAllocateNothing counts folds at
// two cores.)
func TestFedAvgCollectAtCursorDoesNotAllocate(t *testing.T) {
	specs := []models.Spec{
		{Arch: "mlp", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.5},
		{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25},
	}
	for _, spec := range specs {
		t.Run(spec.Arch, func(t *testing.T) {
			global := models.Build(spec, 3)
			agg := NewFedAvgAggregator(global, Config{NumClients: 64})
			payload := append([]byte(nil), agg.Broadcast(0)...)
			const runs = 40
			ids := make([]uint32, runs+1)
			for i := range ids {
				ids[i] = uint32(i)
			}
			agg.BeginRound(0, ids)
			next := 0
			if n := testing.AllocsPerRun(runs, func() {
				agg.Collect(0, ids[next], 100, payload)
				next++
			}); n != 0 {
				t.Fatalf("at-cursor Collect allocated %v times per upload", n)
			}
			if agg.folded != runs+1 || agg.StagingPeak() != 0 {
				t.Fatalf("folded %d of %d, %d parked", agg.folded, runs+1, agg.StagingPeak())
			}
			agg.FinishRound(0)
		})
	}
}
