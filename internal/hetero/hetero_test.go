package hetero

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/nn"
)

// testEnv builds a small but real FL environment over the synthetic
// CIFAR task, Dirichlet-partitioned across clients.
func testEnv(t testing.TB, arch string, width float64, numClients int, seed int64) *fl.Env {
	t.Helper()
	cfg := fl.Config{
		NumClients: numClients, SampleRatio: 1, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.9, Seed: seed,
	}
	spec := models.Spec{Arch: arch, Classes: 4, InC: 3, H: 8, W: 8, Width: width}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: 4, H: 8, W: 8, Noise: 0.25}, numClients*60, 11, 12)
	parts := data.DirichletPartition(ds.Y, 4, numClients, 0.5, 10, rand.New(rand.NewSource(seed+5)))
	var cd []fl.ClientData
	for _, p := range parts {
		sub := ds.Subset(p)
		tr, va := sub.Split(0.8)
		cd = append(cd, fl.ClientData{Train: tr, Val: va})
	}
	return fl.NewEnv(spec, cfg, cd)
}

// newFL is the hetero federation as every algorithm runs in-process: an
// fl.Federation over the aggregator/trainer pair.
func newFL(opts Options) *fl.Federation {
	return fl.NewAlgorithm("hetero",
		func(g *models.SplitModel, cfg algo.Config) *Aggregator { return NewAggregator(g, opts, cfg) },
		func(c *fl.Client, cfg algo.Config) *Trainer { return NewTrainer(c, opts, cfg) })
}

// runRounds drives an algorithm for the given number of rounds with
// full participation, mirroring fl.Run minus evaluation.
func runRounds(env *fl.Env, alg *fl.Federation, rounds int) {
	alg.Setup(env)
	for r := 0; r < rounds; r++ {
		alg.Round(env, r, env.SampleClients())
	}
}

func f32Bytes(v []float32) []byte {
	buf := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b := comm.EncodeDense([]float32{x})
		buf = append(buf, b[5:9]...)
	}
	return buf
}

func TestSliceSpecInvariants(t *testing.T) {
	m := models.Build(models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}, 7)
	total := m.StateLen(models.ScopeAll)
	trainable := nn.ParamCount(m.Params())
	widths := []float64{0.25, 0.5, 1.0}
	cover := map[float64][]bool{}
	for _, w := range widths {
		s := NewSliceSpec(m, w)
		if s.StateLen != total {
			t.Fatalf("w=%g: StateLen %d, want %d", w, s.StateLen, total)
		}
		// Every SliceSpec is a valid sparse layout.
		sp := comm.Sparse{Ranges: s.Ranges, Values: make([]float32, s.Count())}
		if err := sp.Validate(); err != nil {
			t.Fatalf("w=%g: %v", w, err)
		}
		bits := make([]bool, total)
		for _, r := range s.Ranges {
			for i := r.Start; i < r.Start+r.Len; i++ {
				bits[i] = true
			}
		}
		// BN running statistics and everything past the trainable
		// parameters always ship.
		for i := trainable; i < total; i++ {
			if !bits[i] {
				t.Fatalf("w=%g: BN statistic index %d not covered", w, i)
			}
		}
		cover[w] = bits
	}
	if s := NewSliceSpec(m, 1.0); !s.Full() {
		t.Fatal("width 1.0 must cover the full state")
	}
	if c := NewSliceSpec(m, 0.25).Count(); c >= NewSliceSpec(m, 0.5).Count() {
		t.Fatalf("narrower slice not smaller: %d", c)
	}
	// Nesting: a narrower width's coverage is a subset of a wider one's.
	for i := 0; i < total; i++ {
		if cover[0.25][i] && !cover[0.5][i] {
			t.Fatalf("index %d covered at 0.25 but not 0.5", i)
		}
		if cover[0.5][i] && !cover[1.0][i] {
			t.Fatalf("index %d covered at 0.5 but not 1.0", i)
		}
	}
	// Deterministic: the spec is a pure function of (arch, width).
	a, b := NewSliceSpec(m, 0.5), NewSliceSpec(m, 0.5)
	if !a.RangesEqual(b.Ranges) {
		t.Fatal("same (arch, width) produced different slices")
	}
	// No prunable units (mlp): always full coverage.
	mlp := models.Build(models.Spec{Arch: "mlp", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.5}, 7)
	if s := NewSliceSpec(mlp, 0.25); !s.Full() {
		t.Fatal("mlp slice must be full at any width")
	}
}

// TestSliceCutsEveryPrunableConv: a 0.5-width slice of resnet20 must drop,
// for EACH prunable unit, exactly the rows of its conv weight beyond the
// kept channel prefix and the matching input-column groups of the conv
// that consumes it. Where each weight lies in the flat state is found by
// planting a marker value in it and looking for the marker in State —
// nothing NewSliceSpec itself uses. (Offsets used to come from a map keyed
// with one set of *nn.Param and looked up with another: every lookup
// missed, and every unit was cut at offset 0.)
func TestSliceCutsEveryPrunableConv(t *testing.T) {
	m := models.Build(models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}, 7)
	units := m.PrunableUnits()
	if len(units) != 9 {
		t.Fatalf("resnet20 has %d prunable units, want 9", len(units))
	}
	marker := func(k int) float32 { return float32(1000 + k) }
	plant := func(w []float32, k int) {
		for i := range w {
			w[i] = marker(k)
		}
	}
	for ui, u := range units {
		plant(u.Conv.Weight().W.Data, 2*ui)
		plant(u.Next.Weight().W.Data, 2*ui+1)
	}
	state := m.State(models.ScopeAll)
	find := func(k, n int) int {
		for i, v := range state {
			if v == marker(k) {
				if state[i+n-1] != marker(k) || (i+n < len(state) && state[i+n] == marker(k)) {
					t.Fatalf("marker %d does not fill one run of %d", k, n)
				}
				return i
			}
		}
		t.Fatalf("marker %d not in the state", k)
		return -1
	}
	covered := make([]bool, len(state))
	for _, r := range NewSliceSpec(m, 0.5).Ranges {
		for i := r.Start; i < r.Start+r.Len; i++ {
			covered[i] = true
		}
	}
	for ui, u := range units {
		w, nw := u.Conv.Weight().W, u.Next.Weight().W
		keep := (w.Dim(0) + 1) / 2 // ceil(0.5·C)
		off, rowLen := find(2*ui, w.Len()), w.Dim(1)
		for j := 0; j < w.Len(); j++ {
			if want := j/rowLen < keep; covered[off+j] != want {
				t.Fatalf("unit %d conv row %d (state index %d): covered = %v, want %v", ui, j/rowLen, off+j, covered[off+j], want)
			}
		}
		noff, nextRow, kk := find(2*ui+1, nw.Len()), nw.Dim(1), u.Next.K*u.Next.K
		for j := 0; j < nw.Len(); j++ {
			if want := (j%nextRow)/kk < keep; covered[noff+j] != want {
				t.Fatalf("unit %d consumer input channel %d (state index %d): covered = %v, want %v", ui, (j%nextRow)/kk, noff+j, covered[noff+j], want)
			}
		}
	}
}

// TestDegenerateEquivalenceFedAvg pins the tentpole's collapse
// property: one cluster at full width IS FedAvg, bitwise, at any
// GOMAXPROCS.
func TestDegenerateEquivalenceFedAvg(t *testing.T) {
	const clients, rounds, seed = 4, 3, 21
	run := func(alg *fl.Federation, procs int) []float32 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		env := testEnv(t, "mlp", 0.5, clients, seed)
		runRounds(env, alg, rounds)
		return env.Global.State(models.ScopeAll)
	}
	ref := run(fl.NewAlgorithm("fedavg", algo.NewFedAvgAggregator, algo.NewFedAvgTrainer), 2)
	for _, procs := range []int{1, 2, 4} {
		got := run(newFL(Options{Clusters: 1, Widths: []float64{1}}), procs)
		if !bytes.Equal(f32Bytes(got), f32Bytes(ref)) {
			t.Fatalf("degenerate hetero differs from FedAvg at GOMAXPROCS=%d", procs)
		}
	}
}

// TestHeteroDeterministicAcrossProcs pins the non-degenerate case: a
// 2-cluster, 3-width federation reproduces bitwise at any GOMAXPROCS.
func TestHeteroDeterministicAcrossProcs(t *testing.T) {
	const clients, rounds, seed = 6, 3, 33
	opts := Options{Clusters: 2, Widths: []float64{0.25, 0.5, 1.0}, ReassignEvery: 2}
	run := func(procs int) ([]float32, []uint8) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		env := testEnv(t, "resnet20", 0.25, clients, seed)
		alg := newFL(opts)
		runRounds(env, alg, rounds)
		agg := alg.Aggregator().(*Aggregator)
		var state []float32
		for k := 0; k < opts.Clusters; k++ {
			state = append(state, agg.Model(k)...)
		}
		return state, append([]uint8(nil), agg.Assignments()...)
	}
	s1, a1 := run(1)
	for _, procs := range []int{2, 4} {
		sN, aN := run(procs)
		if !bytes.Equal(f32Bytes(s1), f32Bytes(sN)) {
			t.Fatalf("cluster models differ between GOMAXPROCS 1 and %d", procs)
		}
		if !bytes.Equal(a1, aN) {
			t.Fatalf("assignments differ between GOMAXPROCS 1 and %d: %v vs %v", procs, a1, aN)
		}
	}
}

// TestAssignmentDeterministicAcrossShuffles replays the identical round
// into fresh aggregators under 6 seeded arrival permutations; the
// committed cluster assignment must not depend on arrival order.
func TestAssignmentDeterministicAcrossShuffles(t *testing.T) {
	const clients, seed = 6, 9
	opts := Options{Clusters: 2, Widths: []float64{0.25, 0.5, 1.0}, ReassignEvery: 1}
	env := testEnv(t, "resnet20", 0.25, clients, seed)
	cfg := env.AlgoConfig()

	// Produce one genuine upload per client from the round-0 broadcast.
	ref := NewAggregator(env.Global, opts, cfg)
	bcast := append([]byte(nil), ref.Broadcast(0)...)
	payloads := make([][]byte, clients)
	sizes := make([]int, clients)
	for i, c := range env.Clients {
		up := NewTrainer(c, opts, cfg).LocalUpdate(0, bcast)
		if up == nil {
			t.Fatalf("client %d produced no upload", i)
		}
		payloads[i] = append([]byte(nil), up...)
		sizes[i] = c.Train.Len()
	}

	selected := make([]uint32, clients)
	for i := range selected {
		selected[i] = uint32(i)
	}
	var want []uint8
	for shuffle := 0; shuffle < 6; shuffle++ {
		// Fresh environment so client/global models match the reference
		// construction exactly.
		e := testEnv(t, "resnet20", 0.25, clients, seed)
		a := NewAggregator(e.Global, opts, e.AlgoConfig())
		a.Broadcast(0)
		order := rand.New(rand.NewSource(int64(100 + shuffle))).Perm(clients)
		a.BeginRound(0, selected)
		for _, i := range order {
			a.Collect(0, uint32(i), sizes[i], payloads[i])
		}
		a.FinishRound(0) // ReassignEvery=1 → reassignment commits here
		got := append([]uint8(nil), a.Assignments()...)
		if shuffle == 0 {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shuffle %d: assignment %v, want %v", shuffle, got, want)
		}
	}
	if a := ref.Assignments(); len(a) != clients {
		t.Fatalf("reference assignment table has %d entries", len(a))
	}
}

// TestDroppedCountsMalformedUploads pins the validation path: garbage,
// truncated-slice-spec, unknown-width, wrong-cluster and mismatched
// -ranges uploads are all counted in Dropped() and never fold.
func TestDroppedCountsMalformedUploads(t *testing.T) {
	const clients, seed = 3, 5
	opts := Options{Clusters: 1, Widths: []float64{0.5}}
	env := testEnv(t, "resnet20", 0.25, clients, seed)
	cfg := env.AlgoConfig()
	a := NewAggregator(env.Global, opts, cfg)
	a.Broadcast(0)
	before := append([]float32(nil), a.Model(0)...)

	sl := a.Slice(500)
	goodVals := make([]float32, sl.Count())
	mk := func(mut func(*comm.HeteroUpdate)) []byte {
		u := &comm.HeteroUpdate{Cluster: 0, WidthMilli: 500,
			Sparse: comm.Sparse{Ranges: sl.Ranges, Values: goodVals}}
		mut(u)
		return comm.EncodeHeteroUpdateInto(nil, u)
	}
	cases := [][]byte{
		[]byte("not a frame"),
		mk(func(u *comm.HeteroUpdate) { u.WidthMilli = 3000 }), // unknown width
		mk(func(u *comm.HeteroUpdate) { u.Cluster = 7 }),       // wrong cluster
		mk(func(u *comm.HeteroUpdate) { // slice spec not the server's
			u.Ranges = []comm.Range{{Start: 0, Len: uint32(len(goodVals))}}
		}),
		mk(func(*comm.HeteroUpdate) {})[:9], // truncated slice spec
	}
	for i, payload := range cases {
		a.Collect(0, uint32(i%clients), 10, payload)
	}
	a.FinishRound(0)
	if got := a.Dropped(); got != int64(len(cases)) {
		t.Fatalf("Dropped() = %d, want %d", got, len(cases))
	}
	if !bytes.Equal(f32Bytes(a.Model(0)), f32Bytes(before)) {
		t.Fatal("dropped uploads mutated the cluster model")
	}
}

// TestStreamRefusedUploadFreesCursor is algo's test of the same name on
// the hetero aggregator: selection {0, 2, 5, 7}, client 0 sends garbage,
// 2, 5 and 7 well-formed slices in order. Nothing may park behind the
// refusal, and the final broadcast must equal, byte for byte, that of a
// round where client 0 was marked absent.
func TestStreamRefusedUploadFreesCursor(t *testing.T) {
	const clients, seed = 8, 9
	opts := Options{Clusters: 1, Widths: []float64{0.5}}
	ids := []uint32{0, 2, 5, 7}
	run := func(refuse bool) []byte {
		env := testEnv(t, "resnet20", 0.25, clients, seed)
		a := NewAggregator(env.Global, opts, env.AlgoConfig())
		a.Broadcast(0)
		sl := a.Slice(500)
		rng := rand.New(rand.NewSource(seed))
		a.BeginRound(0, ids)
		if refuse {
			a.Collect(0, ids[0], 10, []byte("not a frame"))
		} else {
			a.MarkAbsent(0, ids[0])
		}
		for _, id := range ids[1:] {
			vals := make([]float32, sl.Count())
			for j := range vals {
				vals[j] = float32(rng.NormFloat64())
			}
			a.Collect(0, id, 10+int(id), comm.EncodeHeteroUpdateInto(nil, &comm.HeteroUpdate{
				Cluster: a.Assignments()[id], WidthMilli: 500,
				Sparse: comm.Sparse{Ranges: sl.Ranges, Values: vals}}))
		}
		if refuse {
			if d := a.Dropped(); d != 1 {
				t.Fatalf("Dropped() = %d, want 1", d)
			}
			if p := a.StagingPeak(); p != 0 {
				t.Fatalf("%d uploads parked behind the refused one", p)
			}
		}
		a.FinishRound(0)
		return append([]byte(nil), a.Final()...)
	}
	if !bytes.Equal(run(true), run(false)) {
		t.Fatal("the round with a refused upload differs from the round with it absent")
	}
}

// TestWidthSlicedRoundMovesOnlySlice pins the width pillar end to end:
// a half-width client's upload carries exactly the slice, and after a
// round the cluster model changed only where some slice covered it.
func TestWidthSlicedRoundMovesOnlySlice(t *testing.T) {
	const clients, seed = 3, 13
	opts := Options{Clusters: 1, Widths: []float64{0.5}}
	env := testEnv(t, "resnet20", 0.25, clients, seed)
	cfg := env.AlgoConfig()
	a := NewAggregator(env.Global, opts, cfg)
	before := append([]float32(nil), a.Model(0)...)
	bcast := a.Broadcast(0)
	tr := NewTrainer(env.Clients[0], opts, cfg)
	up := tr.LocalUpdate(0, bcast)
	dec := &comm.HeteroUpdate{}
	if err := comm.DecodeHeteroUpdateInto(dec, up); err != nil {
		t.Fatalf("upload does not decode: %v", err)
	}
	if !tr.Slice().RangesEqual(dec.Ranges) || dec.WidthMilli != 500 {
		t.Fatal("upload slice spec does not match the trainer's")
	}
	a.Collect(0, 0, env.Clients[0].Train.Len(), up)
	a.FinishRound(0)
	sl := a.Slice(500)
	covered := make([]bool, sl.StateLen)
	for _, r := range sl.Ranges {
		for i := r.Start; i < r.Start+r.Len; i++ {
			covered[i] = true
		}
	}
	after := a.Model(0)
	changed := false
	for i := range after {
		if !covered[i] && after[i] != before[i] {
			t.Fatalf("uncovered index %d changed", i)
		}
		if covered[i] && after[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("round changed nothing inside the slice")
	}
}

// Assignments returns the live per-client cluster assignment.
func (a *Aggregator) Assignments() []uint8 { return a.cl.Assign }
