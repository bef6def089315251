package fl

import (
	"fmt"
	"math/rand"
	"sort"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// MassiveSim federates hundreds of thousands to a million simulated
// clients in one process. Real clients (models, datasets, SGD) cost
// megabytes each; at 100k+ that is not a simulation, it is an OOM. A
// massive client is three integers — ID, train size, seed — and its
// round upload is synthesized as a patched copy of the round broadcast:
// a valid dense payload, unique per (round, client), produced by memcpy
// instead of training. What remains real is everything this repo's
// server side is: the aggregator core, the shard-pooling wire format,
// the quorum/late-fold semantics and the telemetry. That is the point —
// MassiveSim exists to exercise and benchmark federation mechanics at
// a scale where per-upload overhead dominates.
//
// Rounds run through the sharded collection tree (algo.ShardBuffer →
// FoldShards order) exactly as a sharded Sim does. With OnTimeFrac < 1 the
// round closes at quorum: the deterministic late fraction of sampled
// uploads misses the round and folds into the next one (FedBuff-style),
// journaled as late_upload events and counted in "fl.late_uploads".
type MassiveConfig struct {
	Clients  int // total simulated clients
	PerRound int // sampled per round (0 = all)
	Shards   int // aggregation-tree width (0 = 1)
	Rounds   int

	// OnTimeFrac is the fraction of sampled uploads that arrive before
	// the quorum closes the round; the rest arrive during the next
	// round and fold late. 0 or 1 keeps every upload synchronous.
	OnTimeFrac float64

	// Spec is the synthetic model; the zero value builds a small MLP.
	Spec models.Spec
	Seed int64

	// FlatCollect bypasses the shard layer: uploads are collected one
	// by one in selection order, the flat server's code path. The
	// baseline for the sharded-vs-flat federation benchmarks.
	FlatCollect bool

	// PerClientEvents journals client_upload per accepted upload. At
	// 100k sampled clients that is 100k journal lines per round, so it
	// is opt-in; shard/round lifecycle events are always emitted.
	PerClientEvents bool

	Tel *telemetry.Set
}

// MassiveResult summarizes a massive federation run.
type MassiveResult struct {
	Rounds      int
	Folded      int64 // uploads folded across all rounds (on-time + late)
	Late        int64 // uploads folded one round after they were computed
	FinalState  []float32
	UpBytes     int64
	RelayBytes  int64
	ShardPushes int64
}

// massiveSynthBatch is how many uploads are synthesized per parallel
// pass. Large enough to keep the synthesis memcpy parallel; under
// FlatCollect, where every upload is a pooled buffer recycled as soon
// as it is folded, small enough that round memory is governed by the
// batch, not the selection.
const massiveSynthBatch = 1024

// lateUpload is a straggler's payload carried into the next round.
type lateUpload struct {
	client    uint32
	trainSize int
	payload   []byte
}

// massiveOnTime deterministically decides whether a sampled client's
// upload beats the quorum deadline this round: a stateless draw — the
// splitmix64 finalizer of the (seed, round, client) training seed,
// its top 53 bits read as a uniform in [0, 1) and compared to frac. One
// function shared by RunMassive and Sim; no generator is seeded,
// so deciding costs a few multiplies per upload.
func massiveOnTime(seed int64, round, client int, frac float64) bool {
	if frac <= 0 || frac >= 1 {
		return true
	}
	z := uint64(algo.ClientSeed(seed, round, client)) ^ 0x1a7e
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < frac
}

// RunMassive executes a massive synthetic federation and returns its
// summary. The run is deterministic in the config: same config, same
// final state bitwise, whatever the shard count (the sharded fold is
// order-identical to flat collect). Which uploads miss a round's quorum
// is the lateness draw massiveOnTime: per (Seed, round, client), a hash
// of the client's training seed compared to OnTimeFrac — independent
// across uploads, so the late share of a round is OnTimeFrac only in
// expectation.
func RunMassive(cfg MassiveConfig) (*MassiveResult, error) {
	if cfg.Clients <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fl: massive sim needs positive Clients and Rounds")
	}
	if cfg.PerRound <= 0 || cfg.PerRound > cfg.Clients {
		cfg.PerRound = cfg.Clients
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	spec := cfg.Spec
	if spec.Arch == "" {
		spec = models.Spec{Arch: "mlp", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.5}
	}
	global := models.Build(spec, cfg.Seed)
	agg := algo.NewFedAvgAggregator(global, algo.Config{NumClients: cfg.Clients, Seed: cfg.Seed})
	tel := cfg.Tel
	algo.Wire(tel, agg)
	var lateCtr telemetry.Counter
	if tel != nil && tel.Reg != nil {
		tel.Reg.Attach("fl.late_uploads", &lateCtr)
	}
	nState := global.StateLen(models.ScopeAll)
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &MassiveResult{Rounds: cfg.Rounds}

	var pendingLate []lateUpload
	var sb algo.ShardBuffer
	var entries []algo.Upload
	trainSize := func(ci int) int { return 50 + ci%101 }
	batch := make([][]byte, 0, massiveSynthBatch)     // this batch's upload slots, by position
	flat := make([]algo.Upload, 0, massiveSynthBatch) // FlatCollect: the batch's on-time uploads
	ids := make([]uint32, 0, cfg.PerRound)
	for round := 0; round < cfg.Rounds; round++ {
		bcast := agg.Broadcast(round)
		selected := rng.Perm(cfg.Clients)[:cfg.PerRound]
		sort.Ints(selected)
		ids = ids[:0]
		for _, ci := range selected {
			ids = append(ids, uint32(ci))
		}
		agg.BeginRound(round, ids)
		tel.Emit(telemetry.RoundStart(round, len(selected), int64(len(bcast))))

		// Stragglers from the previous round land first: fold them into
		// this round before its own collect, FedBuff-style. CollectLate
		// bypasses the streaming cursor, so a late upload never consumes
		// the slot of a client also selected this round. Each payload is
		// a pooled buffer held since its synthesis; the fold is its last
		// use, so it recycles immediately.
		for _, lu := range pendingLate {
			lateCtr.Inc()
			res.Late++
			res.Folded++
			res.UpBytes += int64(len(lu.payload))
			tel.Emit(telemetry.LateUpload(round, int(lu.client), int64(len(lu.payload))))
			agg.CollectLate(round, lu.client, lu.trainSize, lu.payload)
			comm.PutBuf(lu.payload)
		}
		pendingLate = pendingLate[:0]

		// Shard-major collection, identical order to a sharded Sim. An
		// upload is a copy of the broadcast with one client-and-round-
		// specific float patched — a valid dense payload without any
		// training — and it is synthesized where it will be read: an
		// on-time upload directly in its reserved entry of the shard
		// buffer (sized once per shard), a straggler's in a pooled buffer
		// it keeps until the next round's late fold. Synthesis runs in
		// bounded parallel batches; slots are handed out sequentially
		// first, so entry order is selection order. FlatCollect bypasses
		// the shard buffer: pooled buffers, one Collect each.
		onTime := 0
		collected := 0
		pos := 0
		for sh := 0; sh < cfg.Shards; sh++ {
			_, shardHi := algo.ShardRange(sh, cfg.Clients, cfg.Shards)
			lo := pos
			for pos < len(selected) && selected[pos] < shardHi {
				pos++
			}
			if pos == lo {
				continue
			}
			sb.Reset()
			if !cfg.FlatCollect {
				sb.Grow(pos-lo, (pos-lo)*len(bcast))
			}
			for chunkLo := lo; chunkLo < pos; chunkLo += massiveSynthBatch {
				chunkHi := min(chunkLo+massiveSynthBatch, pos)
				batch = batch[:chunkHi-chunkLo]
				flat = flat[:0]
				for b := range batch {
					ci := selected[chunkLo+b]
					if !massiveOnTime(cfg.Seed, round, ci, cfg.OnTimeFrac) {
						// Missed the quorum close: folds next round, so this
						// round's cursor must not wait for it.
						agg.MarkAbsent(round, uint32(ci))
						batch[b] = comm.GetBuf(len(bcast))
						pendingLate = append(pendingLate, lateUpload{client: uint32(ci), trainSize: trainSize(ci), payload: batch[b]})
						continue
					}
					onTime++
					res.UpBytes += int64(len(bcast))
					if cfg.PerClientEvents {
						tel.Emit(telemetry.ClientUpload(round, ci, int64(len(bcast)), 0))
					}
					if cfg.FlatCollect {
						batch[b] = comm.GetBuf(len(bcast))
						flat = append(flat, algo.Upload{Client: uint32(ci), TrainSize: trainSize(ci), Payload: batch[b]})
					} else {
						batch[b] = sb.Reserve(uint32(ci), trainSize(ci), len(bcast))
					}
				}
				tensor.Parallel(len(batch), func(blo, bhi int) {
					for b := blo; b < bhi; b++ {
						ci := selected[chunkLo+b]
						copy(batch[b], bcast)
						delta := float32(round+1) * (1 + float32(ci%997)/997)
						comm.PatchDensePayload(batch[b], ci%nState, delta)
					}
				})
				for _, up := range flat {
					agg.Collect(round, up.Client, up.TrainSize, up.Payload)
					comm.PutBuf(up.Payload)
				}
				collected += len(flat)
			}
			if cfg.FlatCollect {
				continue
			}
			res.RelayBytes += int64(len(sb.Payload()))
			res.ShardPushes++
			tel.Emit(telemetry.ShardPush(round, sh, sb.Len(), int64(len(sb.Payload()))))
			entries, _ = algo.ShardEntries(entries[:0], sb.Payload())
			algo.CollectAll(agg, round, entries)
			collected += len(entries)
		}
		res.Folded += int64(collected)
		if cfg.OnTimeFrac > 0 && cfg.OnTimeFrac < 1 {
			tel.Emit(telemetry.Quorum(round, onTime))
		}
		agg.FinishRound(round)
		tel.Emit(telemetry.Aggregate(round, collected, 0))
		tel.Emit(telemetry.RoundEnd(round, res.UpBytes, 0))
	}
	res.FinalState = global.State(models.ScopeAll)
	return res, nil
}
