package algo

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
)

// TestShardRangePartition: the contiguous shard ranges cover [0, total)
// exactly once, in order — including the empty-shard cases when
// numShards exceeds total.
func TestShardRangePartition(t *testing.T) {
	for _, total := range []int{1, 2, 3, 7, 10, 100, 10000} {
		for _, S := range []int{1, 2, 3, 5, 16, total, total + 3} {
			next := 0
			for s := 0; s < S; s++ {
				lo, hi := ShardRange(s, total, S)
				if lo != next {
					t.Fatalf("total=%d S=%d shard %d starts at %d, want %d", total, S, s, lo, next)
				}
				if hi < lo {
					t.Fatalf("total=%d S=%d shard %d inverted range [%d,%d)", total, S, s, lo, hi)
				}
				next = hi
			}
			if next != total {
				t.Fatalf("total=%d S=%d shards cover [0,%d), want [0,%d)", total, S, next, total)
			}
		}
	}
}

// TestShardPayloadRoundTrip: the pooled shard payload decodes back to the
// exact entries added, in order, and malformed payloads error instead of
// panicking.
func TestShardPayloadRoundTrip(t *testing.T) {
	var sh ShardBuffer
	payloads := [][]byte{{1, 2, 3}, {}, {0xFF, 0x00, 0xAA, 0x42, 9}}
	for i, p := range payloads {
		sh.Add(uint32(10+i), 100+i, p)
	}
	if sh.Len() != len(payloads) {
		t.Fatalf("Len() = %d, want %d", sh.Len(), len(payloads))
	}
	ups, err := ShardEntries(nil, sh.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != len(payloads) {
		t.Fatalf("decoded %d entries, want %d", len(ups), len(payloads))
	}
	for i, u := range ups {
		if u.Client != uint32(10+i) || u.TrainSize != 100+i {
			t.Fatalf("entry %d header = (%d, %d)", i, u.Client, u.TrainSize)
		}
		if string(u.Payload) != string(payloads[i]) {
			t.Fatalf("entry %d payload mismatch", i)
		}
	}
	sh.Reset()
	if sh.Len() != 0 || len(sh.Payload()) != 0 {
		t.Fatal("Reset did not clear the shard")
	}

	// Truncated header and over-long entry must both error.
	if _, err := ShardEntries(nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated header must error")
	}
	var bad [12]byte
	binary.LittleEndian.PutUint32(bad[8:12], 1<<30)
	if _, err := ShardEntries(nil, bad[:]); err == nil {
		t.Fatal("over-long entry must error")
	}
}

// TestShardReserveInPlace: slots reserved after a Grow stay put while
// later entries are reserved — a producer may hold a batch of them and
// fill them in any order — and decode exactly as Add's copies do; a
// Reserve that outgrows the buffer still yields a well-formed payload.
func TestShardReserveInPlace(t *testing.T) {
	payloads := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xAB}, 300), {9}}
	var added, reserved ShardBuffer
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	reserved.Grow(len(payloads), total)
	base := cap(reserved.Payload())
	slots := make([][]byte, len(payloads))
	for i, p := range payloads {
		added.Add(uint32(10+i), 100+i, p)
		slots[i] = reserved.Reserve(uint32(10+i), 100+i, len(p))
	}
	if cap(reserved.Payload()) != base {
		t.Fatal("Reserve moved a buffer Grow had sized")
	}
	for i := len(slots) - 1; i >= 0; i-- { // fill last to first
		if len(slots[i]) != len(payloads[i]) || cap(slots[i]) != len(payloads[i]) {
			t.Fatalf("slot %d: len %d cap %d, want %d", i, len(slots[i]), cap(slots[i]), len(payloads[i]))
		}
		copy(slots[i], payloads[i])
	}
	if !bytes.Equal(reserved.Payload(), added.Payload()) || reserved.Len() != added.Len() {
		t.Fatalf("reserved shard differs from added shard:\n%x\n%x", reserved.Payload(), added.Payload())
	}

	// Without Grow the buffer may move; the payload is still exact.
	var ungrown ShardBuffer
	for i, p := range payloads {
		copy(ungrown.Reserve(uint32(10+i), 100+i, len(p)), p)
	}
	if !bytes.Equal(ungrown.Payload(), added.Payload()) {
		t.Fatal("Reserve without Grow produced a different payload")
	}
	// Reset keeps the backing array and starts over.
	ungrown.Reset()
	copy(ungrown.Reserve(1, 2, 3), []byte{7, 8, 9})
	ups, err := ShardEntries(nil, ungrown.Payload())
	if err != nil || len(ups) != 1 || ups[0].Client != 1 || ups[0].TrainSize != 2 || !bytes.Equal(ups[0].Payload, []byte{7, 8, 9}) {
		t.Fatalf("after Reset: %+v, %v", ups, err)
	}
}

// shardCase is one algorithm under the shard-equivalence battery: a
// fresh-aggregator constructor (identical initial state every call) and a
// synthetic-upload generator in the aggregator's wire format.
type shardCase struct {
	name string
	// agg builds a fresh aggregator over a freshly built global model.
	agg func() Aggregator
	// upload builds client i's payload (deterministic in i).
	upload func(i int) []byte
	// extra returns auxiliary aggregator state that must also match
	// bitwise (control variates, server momentum); may return nil.
	extra func(agg Aggregator) []float32
}

// shardCases builds the five-algorithm battery over a small model.
func shardCases(t *testing.T) []shardCase {
	t.Helper()
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	resnet := models.Spec{Arch: "resnet20", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.25}
	nState := models.Build(spec, 7).StateLen(models.ScopeAll)
	nParams := nn.ParamCount(models.Build(spec, 7).Params())
	enc := models.Build(resnet, 11)
	nEnc := enc.StateLen(models.ScopeEncoder)
	nEncP := nn.ParamCount(enc.EncoderParams())

	dense := func(seed int64, n int) []float32 {
		rng := rand.New(rand.NewSource(seed))
		v := make([]float32, n)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		return v
	}

	return []shardCase{
		{
			name: "fedavg",
			agg:  func() Aggregator { return NewFedAvgAggregator(models.Build(spec, 7), Config{NumClients: 9}) },
			upload: func(i int) []byte {
				return comm.EncodeDense(dense(int64(100+i), nState))
			},
		},
		{
			name: "scaffold",
			agg:  func() Aggregator { return NewSCAFFOLDAggregator(models.Build(spec, 7), Config{NumClients: 9}) },
			upload: func(i int) []byte {
				return comm.JoinPayloads(
					comm.EncodeDense(dense(int64(200+i), nState)),
					comm.EncodeDense(dense(int64(300+i), nParams)))
			},
			extra: func(a Aggregator) []float32 { return a.(*SCAFFOLDAggregator).ControlVariate() },
		},
		{
			name: "fednova",
			agg:  func() Aggregator { return NewFedNovaAggregator(models.Build(spec, 7), Config{NumClients: 9}) },
			upload: func(i int) []byte {
				var steps [4]byte
				binary.LittleEndian.PutUint32(steps[:], uint32(3+i))
				return comm.JoinPayloads(
					comm.EncodeDense(dense(int64(400+i), nState)),
					comm.EncodeDense(dense(int64(500+i), nParams)),
					steps[:])
			},
			extra: func(a Aggregator) []float32 { return a.(*FedNovaAggregator).Velocity() },
		},
		{
			name: "spatl",
			agg: func() Aggregator {
				return NewSPATLAggregator(models.Build(resnet, 11), SPATLOptions{}, Config{NumClients: 9})
			},
			upload: func(i int) []byte {
				rng := rand.New(rand.NewSource(int64(600 + i)))
				dW := synthSparse(rng, nEnc)
				dC := synthSparse(rng, nEncP)
				return comm.JoinPayloads(comm.EncodeSparse(dW), comm.EncodeSparse(dC))
			},
			extra: func(a Aggregator) []float32 { return a.(*SPATLAggregator).ControlVariate() },
		},
		{
			name: "fedavg-f16", // FedProx shares FedAvg's aggregator; cover the f16 wire instead
			agg: func() Aggregator {
				return NewFedAvgAggregator(models.Build(spec, 7), Config{NumClients: 9, HalfPrecision: true})
			},
			upload: func(i int) []byte {
				return comm.EncodeDenseF16Into(nil, dense(int64(700+i), nState))
			},
		},
	}
}

// globalOf reads the aggregator's global model state.
func globalOf(a Aggregator) []float32 {
	switch ag := a.(type) {
	case *FedAvgAggregator:
		return ag.Global.State(models.ScopeAll)
	case *SCAFFOLDAggregator:
		return ag.Global.State(models.ScopeAll)
	case *FedNovaAggregator:
		return ag.Global.State(models.ScopeAll)
	case *SPATLAggregator:
		return ag.Global.State(models.ScopeAll)
	}
	return nil
}

func bitsEqual(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s: [%d] differs bitwise: %x vs %x", label, j,
				math.Float32bits(got[j]), math.Float32bits(want[j]))
		}
	}
}

// TestShardedReduceMatchesFlat is the shard layer's contract: folding
// pooled shard payloads in shard-ID order is bitwise identical to the
// flat sequential collect, for every algorithm, at any shard count and
// any GOMAXPROCS — including when a malformed upload rides in the middle
// (drop parity) and when whole shards are empty.
func TestShardedReduceMatchesFlat(t *testing.T) {
	const clients = 9
	for _, tc := range shardCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ups := make([]Upload, clients)
			for i := range ups {
				ups[i] = Upload{Client: uint32(i), TrainSize: 50 + i*10, Payload: tc.upload(i)}
			}
			ups[4].Payload = []byte{0xde, 0xad} // drop parity: one corrupt upload mid-selection

			// Flat reference: sequential Collect in selection order.
			flat := tc.agg()
			for _, u := range ups {
				flat.Collect(0, u.Client, u.TrainSize, u.Payload)
			}
			flat.FinishRound(0)
			wantState := globalOf(flat)
			var wantExtra []float32
			if tc.extra != nil {
				wantExtra = append([]float32(nil), tc.extra(flat)...)
			}
			wantDrops := flat.(interface{ Dropped() int64 }).Dropped()

			for _, S := range []int{1, 2, 3, 5, clients, clients + 4} {
				for _, procs := range []int{1, 2, 4} {
					prev := runtime.GOMAXPROCS(procs)
					sharded := tc.agg()
					shards := make([]*ShardBuffer, S)
					for s := range shards {
						shards[s] = &ShardBuffer{}
						lo, hi := ShardRange(s, clients, S)
						for pos := lo; pos < hi; pos++ {
							u := ups[pos]
							shards[s].Add(u.Client, u.TrainSize, u.Payload)
						}
					}
					// Fold shard by shard in shard-ID order, as the
					// sharded Sim, RunMassive and the tree root do.
					folded := 0
					var entries []Upload
					for _, sh := range shards {
						var err error
						if entries, err = ShardEntries(entries[:0], sh.Payload()); err != nil {
							t.Fatalf("S=%d: shard payload error: %v", S, err)
						}
						CollectAll(sharded, 0, entries)
						folded += len(entries)
					}
					if folded != clients {
						t.Fatalf("S=%d: folded %d uploads, want %d", S, folded, clients)
					}
					sharded.FinishRound(0)
					runtime.GOMAXPROCS(prev)

					label := tc.name + "/state"
					bitsEqual(t, label, globalOf(sharded), wantState)
					if tc.extra != nil {
						bitsEqual(t, tc.name+"/extra", tc.extra(sharded), wantExtra)
					}
					if d := sharded.(interface{ Dropped() int64 }).Dropped(); d != wantDrops {
						t.Fatalf("S=%d procs=%d: drops %d, want %d", S, procs, d, wantDrops)
					}
				}
			}
		})
	}
}

// TestCollectBatchMatchesSequential pins the BatchCollector fast path
// directly against sequential Collect calls on a second aggregator.
func TestCollectBatchMatchesSequential(t *testing.T) {
	const clients = 6
	for _, tc := range shardCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ups := make([]Upload, clients)
			for i := range ups {
				ups[i] = Upload{Client: uint32(i), TrainSize: 40 + i, Payload: tc.upload(i)}
			}
			seq := tc.agg()
			for _, u := range ups {
				seq.Collect(1, u.Client, u.TrainSize, u.Payload)
			}
			seq.FinishRound(1)

			batch := tc.agg()
			bc, ok := batch.(BatchCollector)
			if !ok {
				t.Fatalf("%T does not implement BatchCollector", batch)
			}
			bc.CollectBatch(1, ups)
			batch.FinishRound(1)

			bitsEqual(t, tc.name, globalOf(batch), globalOf(seq))
		})
	}
}
