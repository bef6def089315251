package algo

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/models"
)

// TestFedAvgAccumulatorInvariant drives one FedAvg aggregator through
// the rounds that could leave its accumulator dirty — every selected
// client absent; every upload at train size 0 with one carrying +Inf,
// so 0·Inf = NaN is folded in and the round finalizes nothing; uploads
// at half precision — then ordinary rounds. FinishRound clears the
// accumulator as it finalizes, and the next round's first fold does not,
// so any round that left a term behind shows in a later one. After
// every round the broadcast and Final() must equal, byte for byte, the
// model StreamFoldRefFedAvg gives over the same uploads.
func TestFedAvgAccumulatorInvariant(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}
	global := models.Build(spec, 21)
	agg := NewFedAvgAggregator(global, Config{NumClients: 3})
	ids := []uint32{0, 1, 2}
	want := global.State(models.ScopeAll)
	rng := rand.New(rand.NewSource(22))

	type round struct {
		name   string
		absent bool
		sizes  []int
		inf    bool // client 1's upload carries +Inf at index 7
		half   bool
	}
	rounds := []round{
		{name: "all absent", absent: true},
		{name: "zero weights, one +Inf", sizes: []int{0, 0, 0}, inf: true},
		{name: "half precision", sizes: []int{30, 10, 20}, half: true},
		{name: "ordinary", sizes: []int{5, 50, 7}},
		{name: "ordinary again", sizes: []int{11, 1, 40}},
	}
	for r, rd := range rounds {
		if got := agg.Broadcast(r); !bytes.Equal(got, comm.EncodeDense(want)) {
			t.Fatalf("round %d (%s): broadcast differs from the reference model", r, rd.name)
		}
		agg.BeginRound(r, ids)
		var states [][]float32
		var weights []float64
		for i, id := range ids {
			if rd.absent {
				agg.MarkAbsent(r, id)
				continue
			}
			st := make([]float32, len(want))
			for j := range st {
				st[j] = want[j] + float32(rng.NormFloat64())
			}
			if rd.inf && i == 1 {
				st[7] = float32(math.Inf(1))
			}
			payload := comm.EncodeDense(st)
			if rd.half {
				payload = comm.EncodeDenseF16Into(nil, st)
			}
			// The reference folds what the wire carries.
			dec, err := comm.DecodeDenseAnyInto(nil, payload)
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, dec)
			weights = append(weights, float64(rd.sizes[i]))
			agg.Collect(r, id, rd.sizes[i], payload)
		}
		agg.FinishRound(r)
		if avg := StreamFoldRefFedAvg(states, weights); avg != nil {
			want = avg
		}
		if !bytes.Equal(agg.Final(), comm.EncodeDense(want)) {
			t.Fatalf("round %d (%s): Final() differs from the StreamFoldRefFedAvg reference", r, rd.name)
		}
	}
}

// TestFedAvgServerRoundAllocatesNothing gates FedAvg's whole server
// round — Broadcast, BeginRound, two at-cursor Collects, FinishRound — on
// a warm resnet20 at zero allocations: the finalize's Parallel body and
// the span callbacks are method values bound at construction, and the
// broadcast is encoded from the model into a reused body.
// (AllocsPerRun measures at GOMAXPROCS 1, where Parallel runs inline.)
func TestFedAvgServerRoundAllocatesNothing(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	agg := NewFedAvgAggregator(models.Build(spec, 3), Config{NumClients: 2})
	ups := [][]byte{
		comm.EncodeDense(models.Build(spec, 4).State(models.ScopeAll)),
		comm.EncodeDense(models.Build(spec, 5).State(models.ScopeAll)),
	}
	ids := []uint32{0, 1}
	round := 0
	serverRound := func() {
		agg.Broadcast(round)
		agg.BeginRound(round, ids)
		for i, up := range ups {
			agg.Collect(round, ids[i], 100+i, up)
		}
		agg.FinishRound(round)
		round++
	}
	serverRound() // warm: the broadcast body and the accumulator
	if n := testing.AllocsPerRun(20, serverRound); n != 0 {
		t.Fatalf("a FedAvg server round allocated %v objects", n)
	}
}

// TestFedAvgMassiveFoldsAllocateNothing gates the folds of a RunMassive
// round at two cores, where tensor.Parallel would really dispatch: on
// RunMassive's default MLP, a warm FedAvg aggregator's collect — a
// piece of stragglers through CollectLate, then the round as 17-upload
// CollectBatch runs, a 512 KiB relay-frame piece each — must not
// allocate. Every fold is walked on the caller. AllocsPerRun cannot see
// the pool's dispatch path (it sets GOMAXPROCS 1, where Parallel runs
// inline), so the gate counts runtime.MemStats.Mallocs itself. It calls
// CollectBatch on the concrete type: CollectAll's interface assertion
// allocates its call site's type cache at a random one of its first
// ~1000 calls.
func TestFedAvgMassiveFoldsAllocateNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	spec := models.Spec{Arch: "mlp", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.5}
	agg := NewFedAvgAggregator(models.Build(spec, 3), Config{NumClients: 1 << 10})
	const piece, pieces = 17, 6
	payload := comm.EncodeDense(models.Build(spec, 4).State(models.ScopeAll))
	ids := make([]uint32, piece*pieces)
	ups := make([]Upload, len(ids))
	late := make([]Upload, piece)
	for i := range ids {
		ids[i] = uint32(2 * i)
		ups[i] = Upload{Client: ids[i], TrainSize: 50 + i%101, Payload: payload}
	}
	for i := range late {
		late[i] = Upload{Client: uint32(2*i + 1), TrainSize: 60 + i, Payload: payload}
	}
	round := func(r int) uint64 {
		var before, after runtime.MemStats
		agg.BeginRound(r, ids)
		runtime.ReadMemStats(&before)
		for _, up := range late {
			agg.CollectLate(r, up.Client, up.TrainSize, up.Payload)
		}
		for lo := 0; lo < len(ups); lo += piece {
			agg.CollectBatch(r, ups[lo:lo+piece])
		}
		runtime.ReadMemStats(&after)
		agg.FinishRound(r)
		return after.Mallocs - before.Mallocs
	}
	// Mallocs counts every goroutine's allocations, so another
	// goroutine's can land in a round: a finished GC cycle starts
	// background work that allocates, and an earlier test can leave work
	// running. The gate runs after one forced cycle with the collector
	// off, and takes the fewest objects any of five warm rounds
	// allocated; an allocating fold would allocate in every round.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	round(0) // warm: the accumulator
	var counts []uint64
	for r := 1; r <= 5; r++ {
		counts = append(counts, round(r))
	}
	if slices.Min(counts) != 0 {
		t.Fatalf("in every warm round the %d folds allocated: %v objects", piece+pieces, counts)
	}
}
