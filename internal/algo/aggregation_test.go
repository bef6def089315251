package algo

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
)

// synthSparse builds a sorted-run sparse payload over [0, n) with odd
// run lengths, exercising chunk-straddling runs in the parallel reduce.
func synthSparse(rng *rand.Rand, n int) *comm.Sparse {
	s := &comm.Sparse{}
	start := rng.Intn(3)
	for start < n {
		l := 1 + rng.Intn(9)
		if start+l > n {
			l = n - start
		}
		s.Ranges = append(s.Ranges, comm.Range{Start: uint32(start), Len: uint32(l)})
		for k := 0; k < l; k++ {
			s.Values = append(s.Values, float32(rng.NormFloat64()))
		}
		start += l + 1 + rng.Intn(64)
	}
	return s
}

// TestSPATLFinishRoundMatchesSerial replays the round's uploads through
// the serial StreamFoldRefSPATL ground truth and demands the streaming
// fold-on-arrival aggregator produce bitwise identical state and
// control variates.
func TestSPATLFinishRoundMatchesSerial(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}
	global := models.Build(spec, 11)
	const clients = 5
	agg := NewSPATLAggregator(global, SPATLOptions{}, Config{NumClients: clients})
	n := global.StateLen(models.ScopeEncoder)
	nCtrl := nn.ParamCount(global.EncoderParams())

	state0 := global.State(models.ScopeEncoder)
	c0 := append([]float32(nil), agg.c...)

	rng := rand.New(rand.NewSource(13))
	dWs := make([]*comm.Sparse, clients)
	dCs := make([]*comm.Sparse, clients)
	for i := range dWs {
		dWs[i] = synthSparse(rng, n)
		dCs[i] = synthSparse(rng, nCtrl)
		agg.Collect(0, uint32(i), 100, comm.JoinPayloads(
			comm.EncodeSparse(dWs[i]), comm.EncodeSparse(dCs[i])))
	}
	agg.FinishRound(0)
	if d := agg.Dropped(); d != 0 {
		t.Fatalf("well-formed uploads counted as dropped: %d", d)
	}

	wantState, wantC := StreamFoldRefSPATL(state0, c0, dWs, dCs, clients)
	gotState := global.State(models.ScopeEncoder)
	for j := range wantState {
		if math.Float32bits(gotState[j]) != math.Float32bits(wantState[j]) {
			t.Fatalf("state[%d] differs bitwise: %x vs %x", j,
				math.Float32bits(gotState[j]), math.Float32bits(wantState[j]))
		}
	}
	for j := range wantC {
		if math.Float32bits(agg.c[j]) != math.Float32bits(wantC[j]) {
			t.Fatalf("c[%d] differs bitwise: %x vs %x", j,
				math.Float32bits(agg.c[j]), math.Float32bits(wantC[j]))
		}
	}
}

// TestSPATLAggregatorCountsDrops verifies malformed uploads are counted
// instead of silently vanishing. A bad control part alone is not a drop:
// the weight delta still folds (the model update stays sound) and only
// the control contribution is discarded.
func TestSPATLAggregatorCountsDrops(t *testing.T) {
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	global := models.Build(spec, 3)
	agg := NewSPATLAggregator(global, SPATLOptions{}, Config{NumClients: 2})
	state0 := global.State(models.ScopeEncoder)
	c0 := append([]float32(nil), agg.c...)
	agg.Collect(0, 0, 10, []byte{1, 2})                              // truncated framing
	agg.Collect(0, 1, 10, comm.JoinPayloads([]byte{9, 9}, []byte{})) // bad dW
	rng := rand.New(rand.NewSource(1))
	dW := synthSparse(rng, agg.Global.StateLen(models.ScopeEncoder))
	agg.Collect(0, 2, 10, comm.JoinPayloads(comm.EncodeSparse(dW), []byte{7})) // good dW, bad dC
	if got := agg.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
	agg.FinishRound(0)
	// The surviving dW folded: the model moved at its covered indices.
	wantState, _ := StreamFoldRefSPATL(state0, c0, []*comm.Sparse{dW}, []*comm.Sparse{nil}, 2)
	gotState := global.State(models.ScopeEncoder)
	for j := range wantState {
		if math.Float32bits(gotState[j]) != math.Float32bits(wantState[j]) {
			t.Fatalf("state[%d]: good dW did not fold as expected", j)
		}
	}
	// The bad control part was discarded: c is bitwise unchanged.
	for j := range c0 {
		if math.Float32bits(agg.c[j]) != math.Float32bits(c0[j]) {
			t.Fatalf("c[%d] moved despite the control part being discarded", j)
		}
	}
}

// TestFedAvgAggregatorMatchesSerial checks the streaming FedAvg fold
// against the serial StreamFoldRef ground truth, plus drop counting.
func TestFedAvgAggregatorMatchesSerial(t *testing.T) {
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	global := models.Build(spec, 7)
	agg := NewFedAvgAggregator(global, Config{NumClients: 3})
	n := global.StateLen(models.ScopeAll)

	rng := rand.New(rand.NewSource(17))
	states := make([][]float32, 3)
	weights := make([]float64, 3)
	for i := range states {
		st := make([]float32, n)
		for j := range st {
			st[j] = float32(rng.NormFloat64())
		}
		states[i] = st
		weights[i] = float64(50 + i*10)
		agg.Collect(0, uint32(i), int(weights[i]), comm.EncodeDense(st))
	}
	agg.Collect(0, 9, 10, []byte{0xFF, 0xFF}) // corrupt upload
	if got := agg.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d, want 1", got)
	}
	agg.FinishRound(0)

	want := StreamFoldRefFedAvg(states, weights)
	got := global.State(models.ScopeAll)
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("state[%d] differs bitwise: %x vs %x", j,
				math.Float32bits(got[j]), math.Float32bits(want[j]))
		}
	}
}

// TestWeightedAverageMatchesSerial pits the parallel reduction against
// the serial reference on awkward sizes, including nil (lost) states.
func TestClipRanges(t *testing.T) {
	in := []comm.Range{{Start: 0, Len: 4}, {Start: 10, Len: 6}, {Start: 20, Len: 3}}
	got := ClipRanges(in, 12)
	if len(got) != 2 {
		t.Fatalf("ranges = %d, want 2", len(got))
	}
	if got[0] != (comm.Range{Start: 0, Len: 4}) {
		t.Fatalf("range 0 = %+v", got[0])
	}
	if got[1] != (comm.Range{Start: 10, Len: 2}) {
		t.Fatalf("straddling range not truncated: %+v", got[1])
	}
	if n := len(ClipRanges(in, 0)); n != 0 {
		t.Fatalf("clip to 0 kept %d ranges", n)
	}
}

// TestSampleSorted: a selection is the sorted prefix of what rand.Perm
// draws from the same generator, which it leaves where rand.Perm leaves
// it, and a selection drawn into the last one's storage allocates
// nothing.
func TestSampleSorted(t *testing.T) {
	var sel []int
	for _, nk := range [][2]int{{1, 1}, {2, 1}, {7, 7}, {10, 4}, {100, 31}, {20000, 10000}} {
		n, k := nk[0], nk[1]
		a, b := rand.New(rand.NewSource(int64(n)+3)), rand.New(rand.NewSource(int64(n)+3))
		for rep := 0; rep < 3; rep++ {
			want := a.Perm(n)[:k]
			slices.Sort(want)
			sel = SampleSorted(sel, b, n, k)
			if !slices.Equal(sel, want) {
				t.Fatalf("n=%d k=%d rep %d: not the sorted prefix of rand.Perm", n, k, rep)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d k=%d: generators diverged", n, k)
		}
	}
	r := rand.New(rand.NewSource(1))
	if allocs := testing.AllocsPerRun(20, func() { sel = SampleSorted(sel, r, 1000, 100) }); allocs != 0 {
		t.Fatalf("a selection into held storage allocated %v objects", allocs)
	}
}
